package datalog

import (
	"strings"
	"testing"
)

func TestParseFactsAndRules(t *testing.T) {
	prog, err := Parse(`
		% facts
		edge(1, 2).
		edge(2, 3).
		label(1, "start").
		// rule with comparison and arithmetic
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- path(X, Y), edge(Y, Z), X != Z.
		succ(X, Y) :- edge(X, _), Y = X + 1.
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 6 {
		t.Fatalf("rules: %d", len(prog.Rules))
	}
	if prog.Arities["edge"] != 2 || prog.Arities["path"] != 2 {
		t.Errorf("arities: %v", prog.Arities)
	}
	if !prog.Rules[0].IsFact() || prog.Rules[4].IsFact() {
		t.Error("fact detection wrong")
	}
}

// TestParseNegationAndAggregates: negation parses, and an aggregate head —
// which no protocol uses — is refused with an error naming it.
func TestParseNegationAndAggregates(t *testing.T) {
	prog, err := Parse(`alive(X) :- node(X), not dead(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Rules[0].Body[1].Negated {
		t.Error("negation not parsed")
	}
	for agg, src := range map[string]string{
		"count": `deg(X, count<Y>) :- edge(X, Y).`,
		"sum":   `total(sum<Y>) :- edge(_, Y).`,
		"min":   `lo(min<Y>) :- edge(_, Y).`,
		"max":   `hi(X, max<Y>) :- edge(X, Y).`,
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "aggregate term "+agg+"<") {
			t.Errorf("%s: err = %v, want a refusal naming %s<…>", src, err, agg)
		}
	}
}

func TestParseStrings(t *testing.T) {
	prog, err := Parse(`op(1, "w"). esc(1, "a\"b\n").`)
	if err != nil {
		t.Fatal(err)
	}
	tup, err := FactTuple(prog.Rules[1])
	if err != nil {
		t.Fatal(err)
	}
	if tup[1].AsString() != "a\"b\n" {
		t.Errorf("escape handling: %q", tup[1].AsString())
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	prog, err := Parse(`v(-5). r(X) :- v(X), X < -1.`)
	if err != nil {
		t.Fatal(err)
	}
	tup, _ := FactTuple(prog.Rules[0])
	if tup[0].AsInt() != -5 {
		t.Errorf("negative literal: %v", tup[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"p(X.",                     // syntax
		"p(X) :- q(X)",             // missing dot
		"p(X) :- q(Y).",            // unsafe head
		"p(X) :- not q(X).",        // unsafe negation
		"p(X) :- q(X), Y < 3.",     // unbound comparison
		"p(1, 2). p(1).",           // arity clash
		"p(X) :- q(X), not r(_Y).", // unbound var in negation (underscore-leading is a var)
		"p(count<X>).",             // aggregate fact with no body / unbound
		"p(X) :- q(_), X = _.",     // wildcard operand
		`p("unterminated`,          // string
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted bad program %q", src)
		}
	}
}

func TestParseWildcardInNegationAllowed(t *testing.T) {
	// not q(X, _) is ¬∃y q(X,y): legal when X is bound.
	if _, err := Parse("p(X) :- r(X), not q(X, _)."); err != nil {
		t.Errorf("wildcard in negation rejected: %v", err)
	}
}

func TestStratifyRejectsNegativeCycle(t *testing.T) {
	_, err := Parse(`
		win(X) :- move(X, Y), not win(Y).
		move(1, 2).
	`)
	if err == nil || !strings.Contains(err.Error(), "stratifiable") {
		t.Errorf("negation cycle accepted: %v", err)
	}
}

func TestStratifyLevels(t *testing.T) {
	prog, err := Parse(`
		b(X) :- a(X).
		c(X) :- b(X), not d(X).
		d(X) :- a(X), a(X).
		e(X) :- c(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	st, n, err := Stratify(prog)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Errorf("strata: %d", n)
	}
	if !(st["c"] > st["d"]) {
		t.Errorf("c must be above d: %v", st)
	}
	if st["e"] < st["c"] {
		t.Errorf("e must not be below c: %v", st)
	}

	// A positive dependency across components sits strictly below: each of
	// b, c, e reads the one before it, and none reads itself.
	if !(st["b"] < st["c"] && st["c"] < st["e"]) {
		t.Errorf("positive chain b < c < e not strictly layered: %v", st)
	}

	// A recursive component shares one stratum, above what it reads and
	// below what reads it.
	prog, err = Parse(`
		base(X, Y) :- e(X, Y).
		p(X, Y) :- base(X, Y).
		p(X, Z) :- q(X, Y), base(Y, Z).
		q(X, Y) :- p(X, Y).
		top(X) :- p(X, _), not q(X, X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if st, n, err = Stratify(prog); err != nil {
		t.Fatal(err)
	}
	if st["p"] != st["q"] || st["base"] >= st["p"] || st["top"] <= st["q"] || n != 3 {
		t.Errorf("recursive component p/q: strata %v, %d in all", st, n)
	}

	// Negation inside a component is still rejected, however long the
	// cycle.
	_, err = Parse(`
		p(X) :- e(X), not r(X).
		q(X) :- p(X).
		r(X) :- q(X).
	`)
	if err == nil || !strings.Contains(err.Error(), "stratifiable") {
		t.Errorf("negation inside a component accepted: %v", err)
	}
}

func TestRuleString(t *testing.T) {
	prog := MustParse(`p(X, Y) :- q(X), not r(X), Y = X + 1, X < 5.`)
	s := prog.Rules[0].String()
	for _, want := range []string{"p(X, Y)", "not r(X)", "Y = X + 1", "X < 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("p(X.")
}
