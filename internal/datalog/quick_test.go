package datalog

import (
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func edgesFromBytes(pairs []uint8) []relation.Tuple {
	var out []relation.Tuple
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, relation.Tuple{
			relation.Int(int64(pairs[i] % 6)),
			relation.Int(int64(pairs[i+1] % 6)),
		})
	}
	return out
}

// TestQuickClosureContainsEdgesAndIsTransitive: path ⊇ edge and path is
// transitively closed, on random graphs.
func TestQuickClosureContainsEdgesAndIsTransitive(t *testing.T) {
	prog := MustParse(`
		path(X, Y) :- edge(X, Y).
		path(X, Z) :- path(X, Y), path(Y, Z).
	`)
	f := func(pairs []uint8) bool {
		edges := edgesFromBytes(pairs)
		e, err := NewEngine(prog)
		if err != nil {
			return false
		}
		if err := e.SetEDB("edge", edges); err != nil {
			return false
		}
		if err := e.Run(); err != nil {
			return false
		}
		path := e.Facts("path")
		inPath := relation.BagOf(path)
		for _, tu := range edges {
			if inPath.Count(tu) == 0 {
				return false
			}
		}
		// Transitivity: for all (a,b),(b,c) in path, (a,c) in path.
		rows := path.Rows()
		for _, ab := range rows {
			for _, bc := range rows {
				if ab[1].Equal(bc[0]) {
					if inPath.Count(relation.Tuple{ab[0], bc[1]}) == 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickNegationPartitions: derived and negated derivations partition the
// domain predicate, on random EDBs.
func TestQuickNegationPartitions(t *testing.T) {
	prog := MustParse(`
		covered(X) :- dom(X), edge(X, _).
		uncovered(X) :- dom(X), not covered(X).
	`)
	f := func(pairs []uint8) bool {
		edges := edgesFromBytes(pairs)
		var dom []relation.Tuple
		for i := int64(0); i < 6; i++ {
			dom = append(dom, relation.Tuple{relation.Int(i)})
		}
		e, err := NewEngine(prog)
		if err != nil {
			return false
		}
		if err := e.SetEDB("edge", edges); err != nil {
			return false
		}
		if err := e.SetEDB("dom", dom); err != nil {
			return false
		}
		if err := e.Run(); err != nil {
			return false
		}
		cov, unc := e.Facts("covered"), e.Facts("uncovered")
		if cov.Len()+unc.Len() != len(dom) {
			return false
		}
		inUnc := relation.BagOf(unc)
		for _, tu := range cov.Rows() {
			if inUnc.Count(tu) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
