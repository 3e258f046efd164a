package rules_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/minisql"
	"repro/internal/relation"
	"repro/internal/rules"
)

// The rule texts are the paper's artifact: every protocol definition must
// parse, compile and expose the predicates the scheduler contracts on
// (`qualified` mirroring the request EDB; `wound` for wound-wait). A typo in
// any constant would otherwise only surface as a panic inside the protocol
// constructors.

// datalogRules maps each Datalog protocol text to the arity its request EDB
// and qualified predicate carry.
var datalogRules = []struct {
	name  string
	src   string
	arity int
}{
	{"ss2pl", rules.SS2PLDatalog, 5},
	{"2pl", rules.TwoPLDatalog, 5},
	{"sla", rules.SLAPriorityDatalog, 7},
	{"relaxed", rules.RelaxedReadsDatalog, 5},
	{"fcfs", rules.FCFSDatalog, 5},
	{"woundwait", rules.WoundWaitDatalog, 5},
	{"rationing", rules.ConsistencyRationingDatalog, 5},
}

// TestDatalogRulesCompile: every rule text parses, the program compiles into
// an engine (stratification, arity and safety checks run there), and a
// trivial evaluation derives a qualified fact of the documented arity.
func TestDatalogRulesCompile(t *testing.T) {
	for _, tc := range datalogRules {
		prog, err := datalog.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		eng, err := datalog.NewEngine(prog)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		// One unblocked read request; empty history. Every protocol must
		// qualify it.
		req := relation.Tuple{
			relation.Int(1), relation.Int(1), relation.Int(0),
			relation.String("r"), relation.Int(7),
		}
		for len(req) < tc.arity {
			req = append(req, relation.Int(0)) // SLA columns of the extended EDB
		}
		if err := eng.SetEDB("request", []relation.Tuple{req}); err != nil {
			t.Fatalf("%s: bind request/%d: %v", tc.name, tc.arity, err)
		}
		if err := eng.SetEDB("history", nil); err != nil {
			t.Fatalf("%s: bind history: %v", tc.name, err)
		}
		if strings.Contains(tc.src, "objclass") {
			if err := eng.SetEDB("objclass", nil); err != nil {
				t.Fatalf("%s: bind objclass: %v", tc.name, err)
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatalf("%s: run: %v", tc.name, err)
		}
		q := eng.Facts("qualified")
		if q.Len() != 1 {
			t.Fatalf("%s: qualified %d rows, want 1", tc.name, q.Len())
		}
		if got := len(q.Row(0)); got != tc.arity {
			t.Fatalf("%s: qualified arity %d, want %d", tc.name, got, tc.arity)
		}
	}
}

// TestWoundWaitDefinesWound: the wound-wait text must derive its abort
// decision through the `wound` predicate the scheduler reads.
func TestWoundWaitDefinesWound(t *testing.T) {
	if !strings.Contains(rules.WoundWaitDatalog, "wound(") {
		t.Fatal("wound-wait rules do not define wound/1")
	}
}

// TestListingOneSQLCompiles: the paper's Listing 1 parses and compiles into
// an executor plan against the request schema — and the plan is view-
// maintainable, which the warm SQL round depends on.
func TestListingOneSQLCompiles(t *testing.T) {
	plan := listingOnePlan(t)
	row := relation.Tuple{
		relation.Int(1), relation.Int(1), relation.Int(0),
		relation.String("r"), relation.Int(7),
	}
	m, err := minisql.NewIVM(plan, map[string]minisql.Delta{"requests": {Ins: []relation.Tuple{row}}})
	if err != nil {
		t.Fatalf("Listing 1 is not view-maintainable: %v", err)
	}
	out, err := m.Result()
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if out.Len() != 1 || out.Schema().Len() != reqSchema.Len() {
		t.Fatalf("Listing 1 over one unblocked request: %s", out)
	}
}

// reqSchema is the five-column layout of both Listing 1 tables.
var reqSchema = relation.NewSchema(
	relation.Column{Name: "id", Kind: relation.KindInt},
	relation.Column{Name: "ta", Kind: relation.KindInt},
	relation.Column{Name: "intrata", Kind: relation.KindInt},
	relation.Column{Name: "operation", Kind: relation.KindString},
	relation.Column{Name: "object", Kind: relation.KindInt},
)

func listingOnePlan(t *testing.T) *minisql.Plan {
	t.Helper()
	q, err := minisql.Parse(rules.ListingOneSQL)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := minisql.CompilePlan(q, map[string]*relation.Schema{
		"requests": reqSchema, "history": reqSchema,
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return plan
}

// TestListingOnePlanIsRewritten pins what the compiler's rewrites make of
// Listing 1, read off the plan rendering (a node's first child is the next
// line, one level deeper): WLockedObjects' LEFT JOIN ... IS NULL is an
// anti-join, no filter sits directly above a join (the cross-side conditions
// of the comma joins are join residuals), the final join against
// QualifiedSS2PLOps — a semi-join against the duplicate-free EXCEPT (rule 2)
// — is one anti-join of the requests against the blocked arms (rule 9), so
// no EXCEPT and no semi-join is left in the plan, the write filter over
// history is one node shared by both lock views, and each lock view's join
// reads the requests and the history rows themselves — the history scan or
// its write filter — with the lock view's anti-joins lifted above it (rule
// 8): one over WLockedObjects' join, two over RLockedObjects'. Neither lock
// view's projection nor WLockedObjects' DISTINCT, read only through the
// EXCEPT, is left, and neither lock view's body is evaluated.
func TestListingOnePlanIsRewritten(t *testing.T) {
	text := listingOnePlan(t).String()
	if strings.Contains(text, "left-join") {
		t.Errorf("a left join survived:\n%s", text)
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	op := func(l string) string { return strings.TrimLeft(l, " ") }
	depth := func(l string) int { return (len(l) - len(op(l))) / 2 }
	inRoot, rootAnti := false, false
	writeFilters := map[string]int{} // filter line -> times printed over scan history
	for i, l := range lines {
		inRoot = inRoot || depth(l) == 0 && !strings.HasPrefix(l, "with ")
		if op(l) == "except" || strings.HasPrefix(op(l), "semi-join ") {
			t.Errorf("%q survived:\n%s", op(l), text)
		}
		// The root's anti-join reads the requests as its left input.
		rootAnti = rootAnti || inRoot && strings.HasPrefix(op(l), "anti-join ") && i+2 < len(lines) &&
			op(lines[i+1]) == "rename r2" && op(lines[i+2]) == "scan requests"
		if i+1 == len(lines) || depth(lines[i+1]) != depth(l)+1 || !strings.HasPrefix(op(l), "select ") {
			continue
		}
		switch child := op(lines[i+1]); {
		case strings.HasPrefix(child, "join "):
			t.Errorf("%q sits directly above %q:\n%s", op(l), child, text)
		case child == "scan history" && strings.Contains(l, `= "w")`):
			writeFilters[op(l)]++
		}
	}
	if !rootAnti {
		t.Errorf("no anti-join of the requests under the root:\n%s", text)
	}
	if len(writeFilters) != 1 {
		t.Fatalf("%d distinct write filters over history, want one:\n%s", len(writeFilters), text)
	}
	for f, n := range writeFilters {
		if !strings.HasSuffix(f, " (shared)") || n < 2 {
			t.Errorf("write filter %q printed %d times, want one shared node under both lock views:\n%s", f, n, text)
		}
	}
	cte, lockJoins := "", 0
	for i, l := range lines {
		if depth(l) == 0 {
			cte, _, _ = strings.Cut(strings.TrimPrefix(l, "with "), ":")
		}
		if op(l) == "distinct" {
			t.Errorf("a distinct survived in %s:\n%s", cte, text)
		}
		if cte != "operationsonwlockedobjects" && cte != "operationsonrlockedobjects" || !strings.HasPrefix(op(l), "join ") {
			continue
		}
		lockJoins++
		// The join's subtree is the lines below it one level deeper or more;
		// a child is one level deeper.
		var children, below []string
		for _, c := range lines[i+1:] {
			if depth(c) <= depth(l) {
				break
			}
			below = append(below, op(c))
			if depth(c) == depth(l)+1 {
				children = append(children, op(c))
			}
		}
		if slices.ContainsFunc(below, func(c string) bool { return strings.HasPrefix(c, "anti-join ") }) {
			t.Errorf("%s's join reads an anti-join:\n%s", cte, text)
		}
		if len(children) != 2 || !slices.Contains(below, "scan requests") || children[1] != "rename a" {
			t.Errorf("%s's join reads %q, want the requests and the history rows:\n%s", cte, children, text)
			continue
		}
		// rename a's subtree ends the join's.
		held := below[slices.Index(below, "rename a")+1:]
		if !slices.Equal(held, []string{"scan history"}) &&
			!(len(held) == 2 && strings.HasPrefix(held[0], `select (operation = "w")`) && held[1] == "scan history") {
			t.Errorf("%s's join reads %q under rename a, want the history scan or its write filter:\n%s", cte, held, text)
		}
		// Climb from the join to the view's projection: every node between
		// is one of the view's anti-joins.
		antis := 0
		for k, d := i-1, depth(l)-1; k >= 0 && d > 0; k-- {
			if depth(lines[k]) != d {
				continue
			}
			if strings.HasPrefix(op(lines[k]), "anti-join ") {
				antis++
			} else if !strings.HasPrefix(op(lines[k]), "project ") {
				t.Errorf("%s's join sits under %q:\n%s", cte, op(lines[k]), text)
			}
			d--
		}
		if want := map[string]int{"operationsonwlockedobjects": 1, "operationsonrlockedobjects": 2}[cte]; antis != want {
			t.Errorf("%s: %d anti-joins above the join, want %d:\n%s", cte, antis, want, text)
		}
	}
	if lockJoins != 2 {
		t.Errorf("%d lock-view joins, want 2:\n%s", lockJoins, text)
	}
	// Nothing reads the lock views' own bodies any more, so neither is
	// evaluated or maintained.
	for _, view := range []string{"rlockedobjects", "wlockedobjects"} {
		if !slices.Contains(lines, "with "+view+": (unread)") {
			t.Errorf("%s is still read:\n%s", view, text)
		}
	}
}
