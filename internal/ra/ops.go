package ra

import (
	"fmt"
	"sort"

	"repro/internal/relation"
)

// Select returns the tuples of r for which pred evaluates to True (Unknown
// and False are both rejected, per SQL WHERE semantics).
func Select(r *relation.Relation, pred Expr) *relation.Relation {
	out := relation.New(r.Schema())
	for _, t := range r.Rows() {
		if Truth(pred.Eval(t)) == True {
			out.AppendTrusted(t)
		}
	}
	return out
}

// NamedExpr is a projection item with its output column name and kind.
type NamedExpr struct {
	Name string
	Kind relation.Kind
	E    Expr
}

// Project evaluates the expressions against every tuple, producing a new
// relation with the given output schema.
func Project(r *relation.Relation, items []NamedExpr) (*relation.Relation, error) {
	cols := make([]relation.Column, len(items))
	for i, it := range items {
		cols[i] = relation.Column{Name: it.Name, Kind: it.Kind}
	}
	out := relation.New(relation.NewSchema(cols...))
	for _, t := range r.Rows() {
		nt := make(relation.Tuple, len(items))
		for i, it := range items {
			nt[i] = it.E.Eval(t)
		}
		// Projection kinds are inferred by the planner and a mismatch is a
		// bug worth surfacing, so every row is validated.
		if err := out.Append(nt); err != nil {
			return nil, fmt.Errorf("ra: project: %w", err)
		}
	}
	return out, nil
}

// concatSchemas builds the output schema of a join; right columns whose names
// collide are disambiguated by prefixing with prefix (used for unqualified
// cross products in tests; the SQL planner always pre-qualifies names).
func concatSchemas(l, r *relation.Schema, prefix string) *relation.Schema {
	cols := make([]relation.Column, 0, l.Len()+r.Len())
	cols = append(cols, l.Columns()...)
	for _, c := range r.Columns() {
		if _, clash := l.Index(c.Name); clash {
			c.Name = prefix + "." + c.Name
		}
		cols = append(cols, c)
	}
	return relation.NewSchema(cols...)
}

// CrossJoin returns the cartesian product of l and r.
func CrossJoin(l, r *relation.Relation) *relation.Relation {
	out := relation.New(concatSchemas(l.Schema(), r.Schema(), "r"))
	for _, lt := range l.Rows() {
		for _, rt := range r.Rows() {
			nt := make(relation.Tuple, 0, len(lt)+len(rt))
			nt = append(nt, lt...)
			nt = append(nt, rt...)
			out.AppendTrusted(nt)
		}
	}
	return out
}

// EquiKey names one pair of join columns (left position, right position).
type EquiKey struct{ L, R int }

// splitKeys separates the key pairs into per-side position lists.
func splitKeys(keys []EquiKey) (lpos, rpos []int) {
	lpos = make([]int, len(keys))
	rpos = make([]int, len(keys))
	for i, k := range keys {
		lpos[i], rpos[i] = k.L, k.R
	}
	return lpos, rpos
}

// keyHash hashes the join-key projection of t; ok is false when any key
// column is NULL (NULL never matches in an equi-join).
func keyHash(t relation.Tuple, pos []int) (uint64, bool) {
	for _, p := range pos {
		if t[p].IsNull() {
			return 0, false
		}
	}
	return t.HashCols(pos), true
}

// keysEqual verifies, after a hash-bucket hit, that the key columns of a and
// b really match (a bucket holds every key sharing the hash's low bits).
func keysEqual(a relation.Tuple, apos []int, b relation.Tuple, bpos []int) bool {
	for i := range apos {
		if !a[apos[i]].Equal(b[bpos[i]]) {
			return false
		}
	}
	return true
}

// buildChain is the build side of one join, built per call: it files the
// positions of r's rows by the hash of their key columns pos, and files a
// row with a NULL key nowhere (it can never match). It returns nil when the
// join has no keys.
func buildChain(r *relation.Relation, pos []int) *relation.Chain {
	if len(pos) == 0 {
		return nil
	}
	c := relation.NewChain()
	c.Reserve(r.Len())
	for _, t := range r.Rows() {
		if h, ok := keyHash(t, pos); ok {
			c.Link(h)
		} else {
			c.Skip()
		}
	}
	return &c
}

// eachMatch calls fn with every build row whose key columns bpos equal the
// probe row pt's ppos, in the build side's chain order, until fn returns
// false. Without a chain (a join without keys) every build row matches.
func eachMatch(pt relation.Tuple, ppos []int, build []relation.Tuple, bpos []int, ix *relation.Chain, fn func(bt relation.Tuple) bool) {
	if ix == nil {
		for _, bt := range build {
			if !fn(bt) {
				return
			}
		}
		return
	}
	h, ok := keyHash(pt, ppos)
	if !ok {
		return
	}
	for p := ix.First(h); p >= 0; p = ix.Next(p) {
		if bt := build[p]; keysEqual(pt, ppos, bt, bpos) && !fn(bt) {
			return
		}
	}
}

// HashJoin performs an inner equi-join on the given keys, then applies the
// optional residual predicate over the concatenated tuple. It builds a hash
// table (buildChain) over the smaller side — a deterministic choice for given
// inputs — and probes it with every row of the other, so the output follows
// the probe side's order.
func HashJoin(l, r *relation.Relation, keys []EquiKey, residual Expr) *relation.Relation {
	if len(keys) == 0 {
		j := CrossJoin(l, r)
		if residual != nil {
			return Select(j, residual)
		}
		return j
	}
	out := relation.New(concatSchemas(l.Schema(), r.Schema(), "r"))
	lpos, rpos := splitKeys(keys)
	build, probe := r, l
	bpos, ppos := rpos, lpos
	buildIsRight := true
	if l.Len() < r.Len() {
		build, probe = l, r
		bpos, ppos = lpos, rpos
		buildIsRight = false
	}
	ix := buildChain(build, bpos)
	for _, pt := range probe.Rows() {
		eachMatch(pt, ppos, build.Rows(), bpos, ix, func(bt relation.Tuple) bool {
			nt := make(relation.Tuple, 0, len(pt)+len(bt))
			if buildIsRight {
				nt = append(append(nt, pt...), bt...)
			} else {
				nt = append(append(nt, bt...), pt...)
			}
			if residual == nil || Truth(residual.Eval(nt)) == True {
				out.AppendTrusted(nt)
			}
			return true
		})
	}
	return out
}

// LeftJoin performs a left outer equi-join: unmatched left tuples are padded
// with NULLs on the right. The residual predicate participates in matching
// (ON-clause semantics). The build side is always the right relation
// (padding is per left row).
func LeftJoin(l, r *relation.Relation, keys []EquiKey, residual Expr) *relation.Relation {
	out := relation.New(concatSchemas(l.Schema(), r.Schema(), "r"))
	lpos, rpos := splitKeys(keys)
	ix := buildChain(r, rpos)
	nulls := make(relation.Tuple, r.Schema().Len()) // the zero Value is NULL
	for _, lt := range l.Rows() {
		matched := false
		eachMatch(lt, lpos, r.Rows(), rpos, ix, func(rt relation.Tuple) bool {
			nt := append(append(make(relation.Tuple, 0, len(lt)+len(rt)), lt...), rt...)
			if residual == nil || Truth(residual.Eval(nt)) == True {
				out.AppendTrusted(nt)
				matched = true
			}
			return true
		})
		if !matched {
			out.AppendTrusted(append(append(make(relation.Tuple, 0, len(lt)+len(nulls)), lt...), nulls...))
		}
	}
	return out
}

// SemiJoin returns the left tuples that have at least one match in r
// (EXISTS). The match predicate sees the concatenated tuple.
func SemiJoin(l, r *relation.Relation, keys []EquiKey, residual Expr) *relation.Relation {
	return semiAnti(l, r, keys, residual, true)
}

// AntiJoin returns the left tuples with no match in r (NOT EXISTS).
func AntiJoin(l, r *relation.Relation, keys []EquiKey, residual Expr) *relation.Relation {
	return semiAnti(l, r, keys, residual, false)
}

func semiAnti(l, r *relation.Relation, keys []EquiKey, residual Expr, want bool) *relation.Relation {
	out := relation.New(l.Schema())
	lpos, rpos := splitKeys(keys)
	ix := buildChain(r, rpos)
	var buf relation.Tuple
	for _, lt := range l.Rows() {
		matched := false
		eachMatch(lt, lpos, r.Rows(), rpos, ix, func(rt relation.Tuple) bool {
			if residual != nil {
				buf = append(append(buf[:0], lt...), rt...)
				if Truth(residual.Eval(buf)) != True {
					return true
				}
			}
			matched = true
			return false
		})
		if matched == want {
			out.AppendTrusted(lt)
		}
	}
	return out
}

// UnionAll concatenates relations with positionally compatible schemas.
func UnionAll(rels ...*relation.Relation) (*relation.Relation, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("ra: union of nothing")
	}
	out := relation.New(rels[0].Schema())
	for _, r := range rels {
		if err := out.AppendAll(r); err != nil {
			return nil, fmt.Errorf("ra: union: %w", err)
		}
	}
	return out, nil
}

// Except returns SQL EXCEPT (set semantics): distinct tuples of l not present
// in r, compared positionally.
func Except(l, r *relation.Relation) (*relation.Relation, error) {
	if l.Schema().Len() != r.Schema().Len() {
		return nil, fmt.Errorf("ra: except arity mismatch %d vs %d", l.Schema().Len(), r.Schema().Len())
	}
	drop := relation.BagOf(r)
	out := relation.New(l.Schema())
	seen := relation.NewBag(l.Schema())
	for _, t := range l.Rows() {
		h := t.Hash()
		if drop.CountHash(t, h) == 0 && seen.AddHash(t, h, 1) == 1 {
			out.AppendTrusted(t)
		}
	}
	return out, nil
}

// SortSpec orders by one column.
type SortSpec struct {
	Pos  int
	Desc bool
}

// OrderBy returns a sorted copy of r.
func OrderBy(r *relation.Relation, specs []SortSpec) *relation.Relation {
	out := r.Clone()
	rows := out.Rows()
	sort.SliceStable(rows, func(a, b int) bool {
		for _, s := range specs {
			c := rows[a][s.Pos].Compare(rows[b][s.Pos])
			if s.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// Rename returns a view of r under a schema of the same layout but different
// names, sharing r's tuples (relation.WithSchema): renaming copies no rows.
func Rename(r *relation.Relation, names []string) (*relation.Relation, error) {
	if len(names) != r.Schema().Len() {
		return nil, fmt.Errorf("ra: rename arity mismatch %d vs %d", len(names), r.Schema().Len())
	}
	cols := r.Schema().Columns()
	for i := range cols {
		cols[i].Name = names[i]
	}
	return r.WithSchema(relation.NewSchema(cols...))
}
