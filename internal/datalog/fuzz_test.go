package datalog

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/relation"
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

// FuzzRunIncrementalMatchesCold: over a random layered program (see
// randomLayeredProgram) and a random sequence of insert/delete batches on its
// two EDB predicates, every IDB predicate of the warm engine equals, after
// every batch, both a fresh engine's cold Run and a reference run over the
// same EDB — stored and unfolded predicates alike (an unfolded one answers
// from an on-demand evaluation). The reference engine repeats full passes
// over the program as written in every stratum until nothing new is
// derived, so it is correct whichever predicates the stratification calls
// recursive and whichever the unfolding pass replaced: a stratum that reads
// a non-recursive predicate of its own, a recursive stratum taken as
// non-recursive, or an unfolding that captures, loses or duplicates a
// variable makes the other runs diverge from it. The helpers the generator
// marks as keep-stored must not unfold.
func FuzzRunIncrementalMatchesCold(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		src, idb, keep := randomLayeredProgram(rng)
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("generated program rejected: %v\n%s", err, src)
		}
		e, err := NewEngine(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range keep {
			if e.unfolded[p] {
				t.Fatalf("%s was unfolded, but must stay stored\nprogram:\n%s\nevaluated:\n%s", p, src, e.prog)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		edb := map[string][]relation.Tuple{"e": nil, "f": nil}
		for step := 0; step < 6; step++ {
			changed := make(map[string]EDBDelta)
			for _, pred := range []string{"e", "f"} {
				var d EDBDelta
				for _, row := range edb[pred] {
					if rng.Intn(3) == 0 {
						d.Delete = append(d.Delete, row)
					}
				}
				for k := rng.Intn(5); k > 0; k-- {
					d.Insert = append(d.Insert, relation.Tuple{
						relation.Int(rng.Int63n(5)), relation.Int(rng.Int63n(5)),
					})
				}
				if len(d.Insert) > 0 || len(d.Delete) > 0 {
					changed[pred] = d
				}
			}
			if err := e.RunIncremental(changed); err != nil {
				t.Fatal(err)
			}
			for pred, d := range changed {
				edb[pred] = applyDeltaMirror(edb[pred], d)
			}
			cold, ref := freshRun(t, prog, edb, false), freshRun(t, prog, edb, true)
			for _, p := range idb {
				warm := e.Facts(p).Distinct()
				for _, o := range []struct {
					name string
					e    *Engine
				}{{"cold", cold}, {"reference", ref}} {
					if want := o.e.Facts(p).Distinct(); !warm.Equal(want) {
						t.Fatalf("step %d: %s diverged from the %s run\nprogram:\n%s\nwarm:\n%s\n%s:\n%s",
							step, p, o.name, src, warm, o.name, want)
					}
				}
			}
			checkFactSetConsistency(t, e)
		}
	})
}

// freshRun evaluates prog over edb cold on a new engine: NewEngine's, or
// with reference the reference engine of the program as written.
func freshRun(t *testing.T, prog *Program, edb map[string][]relation.Tuple, reference bool) *Engine {
	t.Helper()
	newFn := NewEngine
	if reference {
		newFn = newReference
	}
	e, err := newFn(prog)
	if err != nil {
		t.Fatal(err)
	}
	for p, rows := range edb {
		if err := e.SetEDB(p, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

// randomLayeredProgram writes a program over the EDB predicates e/2 and
// f/2: a chain of IDB predicates p0, p1, … each defined by one or two rules
// that copy, swap or join the EDB and the predicates before it, optionally
// negating one of those and comparing the head's columns. With probability
// one half a recursive pair r0/r1 joins the chain at a random link (r0 is
// seeded from below and extended through r1, which copies r0 and may join
// itself with it), and the later links may read it. Unary helpers h<i> join
// the chain too, in the shapes the unfolding pass must tell apart: one atom
// with a `_`, a constant or a body-only variable; two atoms sharing a
// body-only variable; a comparison; two rules; a repeated head variable;
// and a repeated body-only variable, read through the two-rule ternary t.
// Later rules read a helper positively (with a variable, `_` or a
// constant) or under `not` (with a variable or `_`). The rules are written
// in a shuffled order, so no evaluator can rely on the text defining a
// predicate before its readers. It returns the source, the IDB predicates,
// and the predicates that must stay stored: a helper with two rules read
// positively, one whose body-only variable repeats read under `not`, one
// whose head variable repeats read as `not h(_)`, and t.
func randomLayeredProgram(rng *rand.Rand) (string, []string, []string) {
	lower := []string{"e", "f"} // what the next rule may read
	pick := func() string { return lower[rng.Intn(len(lower))] }
	atom := func(pred, x, y string) string { return pred + "(" + x + ", " + y + ")" }
	type helper struct {
		name string
		// keepIf* say which reads keep the helper stored; pos, neg and
		// negWild record the reads the text makes.
		keepIfPos, keepIfNeg, keepIfNegWild bool
		pos, neg, negWild                   bool
	}
	var helpers []*helper
	readHelper := func(x string) string {
		if len(helpers) == 0 || rng.Intn(3) != 0 {
			return ""
		}
		h := helpers[rng.Intn(len(helpers))]
		switch rng.Intn(5) {
		case 0:
			h.pos = true
			return ", " + h.name + "(" + x + ")"
		case 1:
			h.pos = true
			return ", " + h.name + "(_)"
		case 2:
			h.pos = true
			return ", " + h.name + "(1)"
		case 3:
			h.neg = true
			return ", not " + h.name + "(" + x + ")"
		default:
			h.neg, h.negWild = true, true
			return ", not " + h.name + "(_)"
		}
	}
	extras := func(x, y string) string {
		var s string
		if rng.Intn(3) == 0 {
			s += ", not " + atom(pick(), x, y)
		}
		s += readHelper(x)
		switch rng.Intn(4) {
		case 0:
			s += ", " + x + " < " + y
		case 1:
			s += ", " + x + " != " + y
		case 2:
			s += ", " + x + " <= 2"
		}
		return s
	}
	rule := func(head string) string {
		switch rng.Intn(3) {
		case 0:
			return atom(head, "X", "Y") + " :- " + atom(pick(), "X", "Y") + extras("X", "Y") + "."
		case 1:
			return atom(head, "Y", "X") + " :- " + atom(pick(), "X", "Y") + extras("X", "Y") + "."
		default:
			return atom(head, "X", "Z") + " :- " + atom(pick(), "X", "Y") + ", " + atom(pick(), "Y", "Z") + extras("X", "Z") + "."
		}
	}
	var text, idb, keep []string
	ternary := false
	addHelper := func(name string) {
		h := &helper{name: name}
		a, b := pick(), pick()
		switch rng.Intn(8) {
		case 0:
			text = append(text, name+"(X) :- "+atom(a, "X", "_")+".")
		case 1:
			text = append(text, name+"(X) :- "+atom(a, "X", "Z")+".")
		case 2:
			text = append(text, name+"(X) :- "+atom(a, "X", "2")+".")
		case 3:
			text = append(text, name+"(X) :- "+atom(a, "X", "Y")+", "+atom(b, "Y", "3")+".")
		case 4:
			text = append(text, name+"(X) :- "+atom(a, "X", "Y")+", X < Y.")
		case 5:
			text = append(text, name+"(X) :- "+atom(a, "X", "_")+".", name+"(X) :- "+atom(b, "_", "X")+".")
			h.keepIfPos = true
		case 6:
			text = append(text, name+"(X) :- "+atom(a, "X", "X")+".")
			h.keepIfNegWild = true
		default:
			if !ternary {
				ternary = true
				text = append(text, "t(X, Y, Z) :- e(X, Y), f(Y, Z).", "t(X, Y, Z) :- f(X, Y), e(Y, Z).")
				idb = append(idb, "t")
				keep = append(keep, "t")
			}
			text = append(text, name+"(X) :- t(X, Z, Z).")
			h.keepIfNeg = true
		}
		helpers = append(helpers, h)
		idb = append(idb, name)
	}
	n := 2 + rng.Intn(4)
	pairAt := -1
	if rng.Intn(2) == 0 {
		pairAt = rng.Intn(n)
	}
	for i := range n {
		if i == pairAt {
			text = append(text,
				rule("r0"),
				"r0(X, Z) :- r1(X, Y), "+atom(pick(), "Y", "Z")+".",
				"r1(X, Y) :- r0(X, Y)"+extras("X", "Y")+".")
			if rng.Intn(2) == 0 {
				text = append(text, "r1(X, Z) :- r1(X, Y), r0(Y, Z).")
			}
			idb = append(idb, "r0", "r1")
			lower = append(lower, "r0", "r1")
		}
		if rng.Intn(2) == 0 {
			addHelper("h" + strconv.Itoa(i))
		}
		p := "p" + strconv.Itoa(i)
		text = append(text, rule(p))
		if rng.Intn(2) == 0 {
			text = append(text, rule(p))
		}
		idb = append(idb, p)
		lower = append(lower, p)
	}
	for _, h := range helpers {
		if h.keepIfPos && h.pos || h.keepIfNeg && h.neg || h.keepIfNegWild && h.negWild {
			keep = append(keep, h.name)
		}
	}
	rng.Shuffle(len(text), func(i, j int) { text[i], text[j] = text[j], text[i] })
	return strings.Join(text, "\n"), idb, keep
}
