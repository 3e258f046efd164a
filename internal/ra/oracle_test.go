package ra_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/minisql"
	"repro/internal/ra"
	"repro/internal/relation"
)

// The four joins are property-tested against a double loop over both inputs
// (nestedLoop below) as reference: over random relations (NULLs included),
// random multi-column equi-keys and random residual predicates, the SQL text
// of each join (joinSQL) run through the view cache and the double loop
// must produce the same bag of rows.

// nestedLoop is the reference for the four joins: every left row meets every
// right row, a key pair matches under SQL equality (a NULL key matches
// nothing), and the residual is evaluated over the concatenated row. kind is
// "inner", "left", "semi" or "anti".
func nestedLoop(kind string, l, r *relation.Relation, keys []ra.EquiKey, residual ra.Expr) *relation.Relation {
	out := relation.New(l.Schema())
	if kind == "inner" || kind == "left" {
		cols := make([]relation.Column, l.Schema().Len()+r.Schema().Len())
		for i := range cols {
			cols[i] = relation.Column{Name: fmt.Sprintf("c%d", i), Kind: relation.KindNull}
		}
		out = relation.New(relation.NewSchema(cols...))
	}
	for _, lt := range l.Rows() {
		matched := false
		for _, rt := range r.Rows() {
			both := append(lt.Clone(), rt...)
			if !keysMatch(lt, rt, keys) || residual != nil && ra.Truth(residual.Eval(both)) != ra.True {
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
func keysMatch(lt, rt relation.Tuple, keys []ra.EquiKey) bool {
	for _, k := range keys {
		if lt[k.L].IsNull() || !lt[k.L].Equal(rt[k.R]) {
			return false
		}
	}
	return true
}

// joinSQL renders the kind of join nestedLoop computes as SQL over tables
// ln and rn, aliased x and y: the keys and the residual (over the
// concatenated row, x's columns first) make the inner or left join's ON
// clause, or the WHERE clause of the [NOT] EXISTS subquery over y.
func joinSQL(kind, ln, rn string, l, r *relation.Schema, keys []ra.EquiKey, residual ra.Expr) string {
	col := func(p int) string {
		if p < l.Len() {
			return "x." + l.Col(p).Name
		}
		return "y." + r.Col(p-l.Len()).Name
	}
	var conds []string
	for _, k := range keys {
		conds = append(conds, col(k.L)+" = "+col(l.Len()+k.R))
	}
	if residual != nil {
		conds = append(conds, exprSQL(residual, col))
	}
	cond := "1 = 1"
	if len(conds) > 0 {
		cond = strings.Join(conds, " AND ")
	}
	switch kind {
	case "inner":
		return fmt.Sprintf("SELECT * FROM %s x JOIN %s y ON %s", ln, rn, cond)
	case "left":
		return fmt.Sprintf("SELECT * FROM %s x LEFT JOIN %s y ON %s", ln, rn, cond)
	case "semi":
		return fmt.Sprintf("SELECT * FROM %s x WHERE EXISTS (SELECT * FROM %s y WHERE %s)", ln, rn, cond)
	default:
		return fmt.Sprintf("SELECT * FROM %s x WHERE NOT EXISTS (SELECT * FROM %s y WHERE %s)", ln, rn, cond)
	}
}

// exprSQL renders a predicate randResidual draws as SQL, its columns named
// by col.
func exprSQL(e ra.Expr, col func(p int) string) string {
	switch x := e.(type) {
	case ra.Col:
		return col(x.Pos)
	case ra.Lit:
		if x.V.Kind() == relation.KindString {
			return "'" + x.V.AsString() + "'"
		}
		return x.V.Encode()
	case ra.Cmp:
		return fmt.Sprintf("(%s %s %s)", exprSQL(x.L, col), x.Op, exprSQL(x.R, col))
	case ra.Or:
		return fmt.Sprintf("(%s OR %s)", exprSQL(x.L, col), exprSQL(x.R, col))
	}
	panic(fmt.Sprintf("exprSQL: %T", e))
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
func randKeys(rng *rand.Rand, lCols, rCols int) []ra.EquiKey {
	n := 1 + rng.Intn(2)
	keys := make([]ra.EquiKey, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, ra.EquiKey{L: rng.Intn(lCols), R: rng.Intn(rCols)})
	}
	return keys
}

// randResidual builds a random predicate over the concatenated tuple width,
// sometimes nil.
func randResidual(rng *rand.Rand, width int) ra.Expr {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return ra.Cmp{Op: ra.CmpOp(rng.Intn(6)), L: ra.Col{Pos: rng.Intn(width)}, R: ra.Col{Pos: rng.Intn(width)}}
	case 2:
		return ra.Cmp{Op: ra.CmpOp(rng.Intn(6)), L: ra.Col{Pos: rng.Intn(width)}, R: ra.Lit{V: relation.Int(int64(rng.Intn(4)))}}
	default:
		return ra.Or{
			L: ra.Cmp{Op: ra.EQ, L: ra.Col{Pos: rng.Intn(width)}, R: ra.Lit{V: relation.String("w")}},
			R: ra.Cmp{Op: ra.CmpOp(rng.Intn(6)), L: ra.Col{Pos: rng.Intn(width)}, R: ra.Col{Pos: rng.Intn(width)}},
		}
	}
}

func sameBag(t *testing.T, what string, got, want *relation.Relation) {
	t.Helper()
	if !got.Equal(want) {
		t.Fatalf("%s diverged\ngot:\n%s\nwant:\n%s", what, got, want)
	}
}

// TestJoinsMatchNestedLoopOracle: the four joins, as SQL, against the
// double-loop reference over random inputs.
func TestJoinsMatchNestedLoopOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lCols, rCols := 1+rng.Intn(3), 1+rng.Intn(3)
		l := randRel(rng, "l", lCols, rng.Intn(40))
		r := randRel(rng, "r", rCols, rng.Intn(40))
		keys := randKeys(rng, lCols, rCols)
		res := randResidual(rng, lCols+rCols)
		cat := minisql.Catalog{"l": l, "r": r}
		out := map[string]*relation.Relation{}
		for _, kind := range []string{"inner", "left", "semi", "anti"} {
			sql := joinSQL(kind, "l", "r", l.Schema(), r.Schema(), keys, res)
			out[kind] = run(t, sql, cat)
			sameBag(t, fmt.Sprintf("seed %d: %s", seed, sql), out[kind], nestedLoop(kind, l, r, keys, res))
		}
		// Semi and anti partition the left side.
		if out["semi"].Len()+out["anti"].Len() != l.Len() {
			t.Fatalf("seed %d: semi (%d) + anti (%d) != left (%d)", seed, out["semi"].Len(), out["anti"].Len(), l.Len())
		}
	}
}
