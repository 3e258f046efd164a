package ra

import (
	"testing"
	"testing/quick"

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
		out, err := Except(l, r)
		if err != nil {
			return false
		}
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
		u, err := UnionAll(l, r)
		if err != nil {
			return false
		}
		return u.Len() == l.Len()+r.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDistinctIdempotent(t *testing.T) {
	f := func(a []uint8) bool {
		r := relFromBytes(a)
		d := r.Distinct()
		return d.Distinct().Equal(d) && d.Len() <= r.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSemiJoinIsFilterOfLeft(t *testing.T) {
	f := func(a, b []uint8) bool {
		l, r := relFromBytes(a), relFromBytes(b)
		semi := SemiJoin(l, r, []EquiKey{{0, 0}}, nil)
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
		sorted := OrderBy(r, []SortSpec{{Pos: 0}})
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
