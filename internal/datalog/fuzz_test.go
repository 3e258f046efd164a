package datalog

import (
	"testing"

	"repro/internal/rules"
)

// fuzzSeeds are the rule texts the repository ships plus the parser tests'
// inputs, accepted and rejected alike.
var fuzzSeeds = []string{
	rules.SS2PLDatalog, rules.TwoPLDatalog, rules.SLAPriorityDatalog,
	rules.RelaxedReadsDatalog, rules.FCFSDatalog, rules.WoundWaitDatalog,
	rules.ConsistencyRationingDatalog,
	`% facts
	edge(1, 2). edge(2, 3). label(1, "start").
	// rule with comparison and arithmetic
	path(X, Y) :- edge(X, Y).
	path(X, Z) :- path(X, Y), edge(Y, Z), X != Z.
	succ(X, Y) :- edge(X, _), Y = X + 1.`,
	`alive(X) :- node(X), not dead(X).
	deg(X, count<Y>) :- edge(X, Y).
	total(sum<Y>) :- edge(_, Y).`,
	`op(1, "w"). esc(1, "a\"b\n").`,
	`v(-5). r(X) :- v(X), X < -1.`,
	"p(X.", "p(X) :- q(X)", "p(X) :- q(Y).", "p(X) :- not q(X).",
	"p(X) :- q(X), Y < 3.", "p(1, 2). p(1).", "p(X) :- q(X), not r(_Y).",
	"p(count<X>).", "p(X) :- q(_), X = _.", `p("unterminated`,
	"p(X) :- r(X), not q(X, _).",
	"win(X) :- move(X, Y), not win(Y). move(1, 2).",
	"b(X) :- a(X). c(X) :- b(X), not d(X). d(X) :- a(X), a(X). e(X) :- c(X).",
	"p(X, Y) :- q(X), not r(X), Y = X + 1, X < 5.",
	"sg(X, Y) :- par(P, X), par(Q, Y), sg(P, Q). m(X, min<Y>, max<Y>) :- e(X, Y), Y >= 0, Y <= 9.",
}

// FuzzParse: no input makes the lexer, parser, safety checks or stratifier
// panic, and a program that parses compiles into an engine or is rejected
// with an error.
func FuzzParse(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		if e, err := NewEngine(prog); err == nil && e == nil {
			t.Fatal("NewEngine returned neither an engine nor an error")
		}
	})
}
