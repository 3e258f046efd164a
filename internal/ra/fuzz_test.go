package ra_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/minisql"
	"repro/internal/relation"
)

// encodeRow renders a tuple as a map key for the references below: Encode
// quotes strings, so the joined form is unambiguous.
func encodeRow(t relation.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.Encode()
	}
	return strings.Join(parts, ",")
}

// sameRows compares two relations' rows as bags of encoded rows — without
// Relation.Equal, which counts rows in a Bag, the view cache's store.
func sameRows(t *testing.T, what string, got, want *relation.Relation) {
	t.Helper()
	fail := func() { t.Fatalf("%s diverged\ngot:\n%s\nwant:\n%s", what, got, want) }
	if got.Len() != want.Len() {
		fail()
	}
	counts := map[string]int{}
	for i := range got.Len() {
		counts[encodeRow(got.Row(i))]++
		counts[encodeRow(want.Row(i))]--
	}
	for _, n := range counts {
		if n != 0 {
			fail()
		}
	}
}

// collidingInts returns two ints whose one-column key hashes agree in their
// low six bits, so they share a bucket in every chain of up to 64 buckets —
// a hash probe that skipped its key check would join them.
func collidingInts() (relation.Value, relation.Value) {
	seen := map[uint64]int64{}
	for i := int64(4); ; i++ {
		h := relation.HashValues([]relation.Value{relation.Int(i)}) & 63
		if j, ok := seen[h]; ok {
			return relation.Int(j), relation.Int(i)
		}
		seen[h] = i
	}
}

// withColliding returns a copy of r in which about half the rows carry one
// of the two colliding ints in each of the given columns.
func withColliding(rng *rand.Rand, r *relation.Relation, cols ...int) *relation.Relation {
	a, b := collidingInts()
	out := relation.New(r.Schema())
	for _, row := range r.Rows() {
		row = row.Clone()
		for _, c := range cols {
			switch rng.Intn(4) {
			case 0:
				row[c] = a
			case 1:
				row[c] = b
			}
		}
		out.MustAppend(row)
	}
	return out
}

// exceptRef is EXCEPT over Go maps: l's distinct rows absent from r.
func exceptRef(l, r *relation.Relation) *relation.Relation {
	drop, seen := map[string]bool{}, map[string]bool{}
	for _, t := range r.Rows() {
		drop[encodeRow(t)] = true
	}
	out := relation.New(l.Schema())
	for _, t := range l.Rows() {
		if k := encodeRow(t); !drop[k] && !seen[k] {
			seen[k] = true
			out.MustAppend(t)
		}
	}
	return out
}

// FuzzJoinsMatchNestedLoop: over random relations with NULL keys and
// duplicate rows (randRel's small domain), random keys and residuals, the
// four joins as SQL text (joinSQL) equal the double-loop reference
// (nestedLoop), and EXCEPT and DISTINCT equal references over Go maps, each
// query built as a view cache from the catalog as one insert delta. shape
// bit 0 makes both join sides one base table under two aliases (a self-join,
// like Listing 1's, which reads the table twice in that first delta); bit 1
// narrows the join to one key and writes two ints whose hashes share a
// bucket into its columns.
func FuzzJoinsMatchNestedLoop(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		lCols, rCols := 1+rng.Intn(3), 1+rng.Intn(3)
		self := shape&1 != 0
		if self {
			rCols = lCols
		}
		keys := randKeys(rng, lCols, rCols)
		if shape&2 != 0 {
			keys = keys[:1]
		}
		var l, r *relation.Relation
		ln, rn := "l", "r"
		if self {
			base := randRel(rng, "b", lCols, rng.Intn(40))
			if shape&2 != 0 {
				base = withColliding(rng, base, keys[0].L, keys[0].R)
			}
			l, r, ln, rn = base, base, "b", "b"
		} else {
			l, r = randRel(rng, "l", lCols, rng.Intn(40)), randRel(rng, "r", rCols, rng.Intn(40))
			if shape&2 != 0 {
				l, r = withColliding(rng, l, keys[0].L), withColliding(rng, r, keys[0].R)
			}
		}
		cat := minisql.Catalog{ln: l, rn: r}
		what := fmt.Sprintf("seed %d shape %#x keys %v", seed, shape, keys)

		res := randResidual(rng, lCols+rCols)
		for _, kind := range []string{"inner", "left", "semi", "anti"} {
			sql := joinSQL(kind, ln, rn, l.Schema(), r.Schema(), keys, res)
			sameRows(t, what+": "+sql, run(t, sql, cat), nestedLoop(kind, l, r, keys, res))
		}

		o := randRel(rng, "o", lCols, rng.Intn(40))
		cat["o"] = o
		sameRows(t, what+" except", run(t, "(SELECT * FROM "+ln+") EXCEPT (SELECT * FROM o)", cat), exceptRef(l, o))
		sameRows(t, what+" distinct", run(t, "SELECT DISTINCT * FROM "+ln, cat), exceptRef(l, relation.New(l.Schema())))
	})
}
