package ra

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// The hash join operators are property-tested against a double loop over
// both inputs (nestedLoop below) as reference: over random relations (NULLs
// included), random multi-column equi-keys and random residual predicates,
// the hash path and the double loop must produce the same bag of rows.

// nestedLoop is the reference for the four joins: every left row meets every
// right row, a key pair matches under SQL equality (a NULL key matches
// nothing), and the residual is evaluated over the concatenated row. kind is
// "inner", "left", "semi" or "anti".
func nestedLoop(kind string, l, r *relation.Relation, keys []EquiKey, residual Expr) *relation.Relation {
	out := relation.New(l.Schema())
	if kind == "inner" || kind == "left" {
		out = relation.New(concatSchemas(l.Schema(), r.Schema(), "r"))
	}
	for _, lt := range l.Rows() {
		matched := false
		for _, rt := range r.Rows() {
			both := append(lt.Clone(), rt...)
			if !keysMatch(lt, rt, keys) || residual != nil && Truth(residual.Eval(both)) != True {
				continue
			}
			matched = true
			if kind == "inner" || kind == "left" {
				out.AppendTrusted(both)
			}
		}
		switch {
		case kind == "left" && !matched:
			out.AppendTrusted(append(lt.Clone(), make(relation.Tuple, r.Schema().Len())...))
		case kind == "semi" && matched, kind == "anti" && !matched:
			out.AppendTrusted(lt)
		}
	}
	return out
}

// keysMatch reports whether every key pair of lt and rt is equal and not
// NULL.
func keysMatch(lt, rt relation.Tuple, keys []EquiKey) bool {
	for _, k := range keys {
		if lt[k.L].IsNull() || !lt[k.L].Equal(rt[k.R]) {
			return false
		}
	}
	return true
}

// randRel builds a random relation over nCols dynamically mixed int/string
// columns, with occasional NULLs so the NULL-key join semantics are hit.
func randRel(rng *rand.Rand, name string, nCols, nRows int) *relation.Relation {
	cols := make([]relation.Column, nCols)
	for i := range cols {
		cols[i] = relation.Column{Name: fmt.Sprintf("%s%d", name, i), Kind: relation.KindNull}
	}
	r := relation.New(relation.NewSchema(cols...))
	for i := 0; i < nRows; i++ {
		t := make(relation.Tuple, nCols)
		for j := range t {
			switch rng.Intn(6) {
			case 0:
				t[j] = relation.Null()
			case 1:
				t[j] = relation.String([]string{"r", "w", "c"}[rng.Intn(3)])
			default:
				t[j] = relation.Int(int64(rng.Intn(4)))
			}
		}
		r.MustAppend(t)
	}
	return r
}

// randKeys picks up to two random column pairs as equi-keys.
func randKeys(rng *rand.Rand, lCols, rCols int) []EquiKey {
	n := 1 + rng.Intn(2)
	keys := make([]EquiKey, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, EquiKey{L: rng.Intn(lCols), R: rng.Intn(rCols)})
	}
	return keys
}

// randResidual builds a random predicate over the concatenated tuple width,
// sometimes nil.
func randResidual(rng *rand.Rand, width int) Expr {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return Cmp{Op: CmpOp(rng.Intn(6)), L: Col{Pos: rng.Intn(width)}, R: Col{Pos: rng.Intn(width)}}
	case 2:
		return Cmp{Op: CmpOp(rng.Intn(6)), L: Col{Pos: rng.Intn(width)}, R: Lit{V: relation.Int(int64(rng.Intn(4)))}}
	default:
		return Or{
			L: Cmp{Op: EQ, L: Col{Pos: rng.Intn(width)}, R: Lit{V: relation.String("w")}},
			R: Cmp{Op: CmpOp(rng.Intn(6)), L: Col{Pos: rng.Intn(width)}, R: Col{Pos: rng.Intn(width)}},
		}
	}
}

func sameBag(t *testing.T, what string, got, want *relation.Relation) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s diverged\ngot:\n%s\nwant:\n%s", what, got, want)
	}
}

// TestJoinsMatchNestedLoopOracle: hash joins against the double-loop
// reference over random inputs.
func TestJoinsMatchNestedLoopOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lCols, rCols := 1+rng.Intn(3), 1+rng.Intn(3)
		l := randRel(rng, "l", lCols, rng.Intn(40))
		r := randRel(rng, "r", rCols, rng.Intn(40))
		keys := randKeys(rng, lCols, rCols)
		step := fmt.Sprintf("seed %d", seed)

		res := randResidual(rng, lCols+rCols)
		hash := HashJoin(l, r, keys, res)
		sameBag(t, step+" inner join vs oracle", hash, nestedLoop("inner", l, r, keys, res))

		left := LeftJoin(l, r, keys, res)
		sameBag(t, step+" left join vs oracle", left, nestedLoop("left", l, r, keys, res))

		semi := SemiJoin(l, r, keys, res)
		sameBag(t, step+" semi join vs oracle", semi, nestedLoop("semi", l, r, keys, res))

		anti := AntiJoin(l, r, keys, res)
		sameBag(t, step+" anti join vs oracle", anti, nestedLoop("anti", l, r, keys, res))

		// Semi and anti partition the left side.
		if semi.Len()+anti.Len() != l.Len() {
			t.Fatalf("%s: semi (%d) + anti (%d) != left (%d)", step, semi.Len(), anti.Len(), l.Len())
		}
	}
}
