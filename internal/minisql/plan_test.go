package minisql

import (
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/rules"
)

// requestSchema is the schema of Listing 1's requests and history tables.
func requestSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "ta", Kind: relation.KindInt},
		relation.Column{Name: "intrata", Kind: relation.KindInt},
		relation.Column{Name: "operation", Kind: relation.KindString},
		relation.Column{Name: "object", Kind: relation.KindInt},
	)
}

func listingOnePlan(t *testing.T) *Plan {
	t.Helper()
	return requestsPlan(t, rules.ListingOneSQL)
}

// requestsPlan compiles a query over Listing 1's requests and history
// tables.
func requestsPlan(t *testing.T, src string) *Plan {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	req := requestSchema()
	p, err := CompilePlan(q, map[string]*relation.Schema{"requests": req, "history": req})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestListingOneLockViewsAreKeyProbes: Listing 1's RLockedObjects — NOT EXISTS
// over (same ta, same object, a write) OR (same ta, a termination) — compiles
// to two anti-joins probed by hash key alone: (ta, object) against the writes
// and (ta) against the terminations, the operation tests pushed below as
// filters, no residual predicate left to interpret per candidate pair. Planned
// as one anti-join on ta with the OR as its residual, a warm round re-probes
// every appended row against its whole transaction.
func TestListingOneLockViewsAreKeyProbes(t *testing.T) {
	p := listingOnePlan(t)
	slot := -1
	for i, name := range p.names {
		if name == "rlockedobjects" {
			slot = i
		}
	}
	if slot < 0 {
		t.Fatalf("no RLockedObjects CTE in the plan:\n%s", p)
	}
	var antis []*planNode
	var walk func(n *planNode)
	walk = func(n *planNode) {
		if n == nil {
			return
		}
		if n.op == opSemi {
			antis = append(antis, n)
		}
		walk(n.l)
		walk(n.r)
	}
	walk(p.ctes[slot])
	if len(antis) != 2 {
		t.Fatalf("RLockedObjects has %d semi/anti-joins, want 2:\n%s", len(antis), p)
	}
	// walk visits parents first: the outer anti-join is the second disjunct.
	for i, want := range [][]string{{"ta"}, {"ta", "object"}} {
		n := antis[i]
		if !n.anti || n.pred != nil {
			t.Errorf("join %d: anti=%v residual=%v, want an anti-join without residual:\n%s", i, n.anti, n.pred, p)
		}
		var got []string
		for _, k := range n.keys {
			l, r := n.l.schema.Col(k.L).Name, n.r.schema.Col(k.R).Name
			if l != "a."+strings.TrimPrefix(r, "b.") {
				t.Errorf("join %d: key %s = %s does not pair the same column of a and b", i, l, r)
			}
			got = append(got, strings.TrimPrefix(l, "a."))
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("join %d keyed on %v, want %v:\n%s", i, got, want, p)
		}
		// The filter may be shared with another view: its rename sits between.
		if belowRenames(n.r).op != opSelect {
			t.Errorf("join %d: the operation test was not pushed below the join:\n%s", i, p)
		}
	}
	for _, n := range p.nodes {
		if n.op == opSemi && n.pred != nil {
			t.Errorf("a semi/anti-join of Listing 1 keeps residual %v:\n%s", n.pred, p)
		}
	}
}

// TestPlanString pins the rendering on a query that exercises keys, a
// residual, pushed-down filters, a CTE, the unary operators and an identity
// projection compiled as a rename.
func TestPlanString(t *testing.T) {
	q, err := Parse(`WITH fin AS (SELECT ta FROM h WHERE op = 'c')
		SELECT DISTINCT a.ta, a.op, a.obj
		FROM h a
		WHERE a.op = 'w'
		  AND NOT EXISTS (SELECT * FROM fin f WHERE f.ta = a.ta)
		  AND EXISTS (SELECT * FROM h b WHERE b.obj = a.obj AND b.ta > a.ta AND b.op = 'r')
		ORDER BY ta DESC`)
	if err != nil {
		t.Fatal(err)
	}
	h := relation.NewSchema(
		relation.Column{Name: "ta", Kind: relation.KindInt},
		relation.Column{Name: "op", Kind: relation.KindString},
		relation.Column{Name: "obj", Kind: relation.KindInt},
	)
	p, err := CompilePlan(q, map[string]*relation.Schema{"h": h})
	if err != nil {
		t.Fatal(err)
	}
	want := `with fin:
  project ta=h.ta
    select (h.op = "c")
      rename h
        scan h
order-by ta desc
  distinct
    rename ta, op, obj
      semi-join on a.obj = b.obj residual (b.ta > a.ta)
        anti-join on a.ta = f.ta
          select (a.op = "w")
            rename a
              scan h
          rename f
            scan cte fin
        select (b.op = "r")
          rename b
            scan h
`
	if got := p.String(); got != want {
		t.Fatalf("plan rendering changed\ngot:\n%s\nwant:\n%s", got, want)
	}
}
