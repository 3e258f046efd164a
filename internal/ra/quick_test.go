package ra_test

import (
	"testing"
	"testing/quick"

	"repro/internal/minisql"
	"repro/internal/relation"
)

func relFromBytes(vals []uint8) *relation.Relation {
	r := relation.New(relation.NewSchema(relation.Column{Name: "v", Kind: relation.KindInt}))
	for _, v := range vals {
		r.MustAppend(relation.Tuple{relation.Int(int64(v % 8))})
	}
	return r
}

func TestQuickExceptIsSubsetAndDisjoint(t *testing.T) {
	f := func(a, b []uint8) bool {
		l, r := relFromBytes(a), relFromBytes(b)
		out := run(t, "(SELECT v FROM l) EXCEPT (SELECT v FROM r)", minisql.Catalog{"l": l, "r": r})
		// relFromBytes rows are one int column: key the references by it.
		inL, inR := map[int64]bool{}, map[int64]bool{}
		for _, tu := range l.Rows() {
			inL[tu[0].AsInt()] = true
		}
		for _, tu := range r.Rows() {
			inR[tu[0].AsInt()] = true
		}
		seen := map[int64]bool{}
		for _, tu := range out.Rows() {
			v := tu[0].AsInt()
			if inR[v] {
				return false // EXCEPT result intersects right side
			}
			if seen[v] {
				return false // EXCEPT must deduplicate
			}
			seen[v] = true
			if !inL[v] {
				return false // result must come from the left side
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionAllLengthAdds(t *testing.T) {
	f := func(a, b []uint8) bool {
		l, r := relFromBytes(a), relFromBytes(b)
		u := run(t, "(SELECT v FROM l) UNION ALL (SELECT v FROM r)", minisql.Catalog{"l": l, "r": r})
		return u.Len() == l.Len()+r.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDistinctIdempotent(t *testing.T) {
	f := func(a []uint8) bool {
		cat := minisql.Catalog{"r": relFromBytes(a)}
		d := run(t, "SELECT DISTINCT v FROM r", cat)
		dd := run(t, "SELECT DISTINCT v FROM (SELECT DISTINCT v FROM r) d", cat)
		return dd.Equal(d) && d.Len() <= cat["r"].Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSemiJoinIsFilterOfLeft(t *testing.T) {
	f := func(a, b []uint8) bool {
		l, r := relFromBytes(a), relFromBytes(b)
		semi := run(t, "SELECT v FROM l WHERE EXISTS (SELECT * FROM r WHERE r.v = l.v)", minisql.Catalog{"l": l, "r": r})
		// Every semi-join output row must exist in l and have a match in r.
		rVals := map[int64]bool{}
		for _, tu := range r.Rows() {
			rVals[tu[0].AsInt()] = true
		}
		for _, tu := range semi.Rows() {
			if !rVals[tu[0].AsInt()] {
				return false
			}
		}
		// And every l row with a match must appear (bag semantics preserved).
		want := 0
		for _, tu := range l.Rows() {
			if rVals[tu[0].AsInt()] {
				want++
			}
		}
		return semi.Len() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickOrderByPreservesBag(t *testing.T) {
	f := func(a []uint8) bool {
		r := relFromBytes(a)
		sorted := run(t, "SELECT v FROM r ORDER BY v", minisql.Catalog{"r": r})
		if !sorted.Equal(r) {
			return false
		}
		for i := 1; i < sorted.Len(); i++ {
			if sorted.Row(i - 1)[0].Compare(sorted.Row(i)[0]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
