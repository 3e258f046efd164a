package minisql

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/rules"
)

// fuzzSeeds are Listing 1 plus the query shapes the executor tests cover,
// accepted and rejected alike.
var fuzzSeeds = []string{
	rules.ListingOneSQL,
	"SELECT a FROM t WHERE b > 10",
	"SELECT a, b FROM t WHERE a = 1 OR a = 3",
	"SELECT a FROM t WHERE NOT (a = 2)",
	"SELECT * FROM t",
	"SELECT x.* FROM t x, u y WHERE x.a = y.b",
	"SELECT r.ta FROM r, s WHERE r.obj = s.obj AND r.ta <> s.ta",
	`SELECT DISTINCT a.ta
	 FROM h a LEFT JOIN (SELECT ta FROM h WHERE op = 'c') AS fin ON a.ta = fin.ta
	 WHERE a.op = 'w' AND fin.ta IS NULL`,
	"SELECT ta FROM r a WHERE EXISTS (SELECT * FROM h b WHERE a.ta = b.ta)",
	`SELECT a.ta FROM r a WHERE NOT EXISTS (
		SELECT * FROM h b
		WHERE (a.ta = b.ta AND a.obj = b.obj AND b.op = 'w')
		   OR (a.ta = b.ta AND b.op = 'x'))`,
	// NOT EXISTS over disjunctions, which the planner splits into anti-join
	// chains: no equality shared by the disjuncts, no equality at all, an OR
	// nested in a disjunct, a common conjunct beside the OR, a NULL test, and
	// a conjunction of ORs (the split's exponential case).
	`SELECT a.ta FROM r a WHERE NOT EXISTS (
		SELECT * FROM h b WHERE (a.ta = b.ta AND b.op = 'w') OR (a.obj = b.obj AND b.op = 'r'))`,
	"SELECT a.ta FROM r a WHERE NOT EXISTS (SELECT * FROM s b WHERE b.ta > a.ta OR b.obj < a.obj)",
	`SELECT a.ta FROM r a WHERE NOT EXISTS (
		SELECT * FROM h b WHERE a.ta = b.ta AND (a.obj = b.obj OR (b.op = 'c' AND (b.obj IS NULL OR a.obj > 3))))`,
	`SELECT x.a FROM t x WHERE NOT EXISTS (
		SELECT * FROM t y, u z WHERE y.b = z.b AND (x.a = y.a OR x.b = z.b) AND (x.a = z.b OR x.b = y.b))`,
	"SELECT a.ta FROM r a WHERE NOT NOT EXISTS (SELECT * FROM s b WHERE a.ta = b.ta OR a.obj = b.obj)",
	"(SELECT a FROM t) UNION ALL (SELECT b FROM u)",
	"(SELECT a FROM t) UNION (SELECT b FROM u)",
	"(SELECT a FROM t) EXCEPT (SELECT b FROM u)",
	"SELECT DISTINCT a FROM t",
	`WITH big AS (SELECT a FROM t WHERE a >= 2),
	      biggest AS (SELECT a FROM big WHERE a >= 3)
	 SELECT * FROM biggest`,
	"SELECT a, b FROM t ORDER BY a DESC LIMIT 2",
	"SELECT a * 2 + 1 AS v FROM t",
	"SELECT op FROM h WHERE op NOT IN ('a', 'c')",
	"SELECT op FROM h WHERE op = 'it''s'",
	"SELECT ta, COUNT(*) AS n FROM h GROUP BY ta ORDER BY ta",
	"SELECT a, SUM(b) s, MIN(b) mn, MAX(b) mx, AVG(b) av, COUNT(b) c FROM t GROUP BY a ORDER BY a",
	"SELECT ta FROM h GROUP BY ta HAVING COUNT(*) > 1 ORDER BY ta",
	"SELECT b % 2 AS parity, COUNT(*) AS n FROM t GROUP BY b % 2 ORDER BY parity",
	"SELECT a, COUNT(*) AS n FROM (SELECT DISTINCT a, b FROM t) AS d GROUP BY a",
	"SELECT nope FROM t", "SELECT a FROM missing", "SELECT a FROM t WHERE",
	"SELECT a FROM t t2, t t2", "SELECT a FROM t ORDER BY a + 1", "SELECT",
}

// FuzzParse: no input makes the lexer or parser panic, and a query that
// parses is planned against a fixed catalog or rejected with an error.
func FuzzParse(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	ints := func(names ...string) *relation.Schema {
		cols := make([]relation.Column, len(names))
		for i, n := range names {
			cols[i] = relation.Column{Name: n, Kind: relation.KindInt}
		}
		return relation.NewSchema(cols...)
	}
	req := relation.NewSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "ta", Kind: relation.KindInt},
		relation.Column{Name: "intrata", Kind: relation.KindInt},
		relation.Column{Name: "operation", Kind: relation.KindString},
		relation.Column{Name: "object", Kind: relation.KindInt},
	)
	h := relation.NewSchema(
		relation.Column{Name: "ta", Kind: relation.KindInt},
		relation.Column{Name: "op", Kind: relation.KindString},
		relation.Column{Name: "obj", Kind: relation.KindInt},
	)
	tables := map[string]*relation.Schema{
		"requests": req, "history": req, "h": h,
		"t": ints("a", "b"), "u": ints("b"), "r": ints("ta", "obj"), "s": ints("ta", "obj"),
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		if p, err := CompilePlan(q, tables); err == nil && p == nil {
			t.Fatal("CompilePlan returned neither a plan nor an error")
		}
	})
}
