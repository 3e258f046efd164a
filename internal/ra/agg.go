package ra

import (
	"repro/internal/relation"
)

// AggFunc names an aggregate function.
type AggFunc int8

// Aggregate functions.
const (
	Count AggFunc = iota // COUNT(expr) — non-NULL inputs
	CountStar
	Sum
	Min
	Max
	Avg // integer average (floor), NULL on empty group
)

func (f AggFunc) String() string {
	return [...]string{"count", "count(*)", "sum", "min", "max", "avg"}[f]
}

// AggSpec is one aggregate output column.
type AggSpec struct {
	Func AggFunc
	E    Expr // ignored for CountStar
	Name string
}

// AggOutputKind returns the output column kind of an aggregate: MIN/MAX
// carry their input's values, which may be strings, so they get an any-kind
// column; everything else is an int. The single source of the rule shared by
// GroupBy's output schema, the SQL planner and the IVM's group views.
func AggOutputKind(f AggFunc) relation.Kind {
	if f == Min || f == Max {
		return relation.KindNull
	}
	return relation.KindInt
}

// GroupAcc accumulates one group's aggregate state: the single
// implementation of the per-group fold and output-row construction, shared
// by GroupBy (cold evaluation, one row at a time) and the SQL executor's
// incremental view maintenance (counted distinct tuples). Keeping both
// evaluators on this one fold is what guarantees a delta-maintained
// aggregate view can never drift from a cold re-evaluation.
type GroupAcc struct {
	n      int64   // group size (weighted)
	counts []int64 // per-agg non-null count
	sums   []int64
	mins   []relation.Value
	maxs   []relation.Value
}

// NewGroupAcc creates an empty accumulator for len(aggs) aggregates.
func NewGroupAcc(naggs int) *GroupAcc {
	return &GroupAcc{
		counts: make([]int64, naggs),
		sums:   make([]int64, naggs),
		mins:   make([]relation.Value, naggs),
		maxs:   make([]relation.Value, naggs),
	}
}

// Add folds k copies of tuple t into the group (k > 0).
func (g *GroupAcc) Add(t relation.Tuple, k int64, aggs []AggSpec) {
	g.n += k
	for i, a := range aggs {
		if a.Func == CountStar {
			continue
		}
		v := a.E.Eval(t)
		if v.IsNull() {
			continue
		}
		first := g.counts[i] == 0
		g.counts[i] += k
		if v.Kind() == relation.KindInt {
			g.sums[i] += v.AsInt() * k
		}
		if first {
			g.mins[i], g.maxs[i] = v, v
		} else {
			if v.Compare(g.mins[i]) < 0 {
				g.mins[i] = v
			}
			if v.Compare(g.maxs[i]) > 0 {
				g.maxs[i] = v
			}
		}
	}
}

// N returns the (weighted) group size.
func (g *GroupAcc) N() int64 { return g.n }

// Row builds the group's output tuple: the key columns followed by one value
// per aggregate (SQL semantics: COUNT of an empty group is 0, every other
// aggregate is NULL).
func (g *GroupAcc) Row(key relation.Tuple, aggs []AggSpec) relation.Tuple {
	t := make(relation.Tuple, 0, len(key)+len(aggs))
	t = append(t, key...)
	for i, a := range aggs {
		switch a.Func {
		case Count:
			t = append(t, relation.Int(g.counts[i]))
		case CountStar:
			t = append(t, relation.Int(g.n))
		case Sum:
			if g.counts[i] == 0 {
				t = append(t, relation.Null())
			} else {
				t = append(t, relation.Int(g.sums[i]))
			}
		case Min:
			if g.counts[i] == 0 {
				t = append(t, relation.Null())
			} else {
				t = append(t, g.mins[i])
			}
		case Max:
			if g.counts[i] == 0 {
				t = append(t, relation.Null())
			} else {
				t = append(t, g.maxs[i])
			}
		default: // Avg
			if g.counts[i] == 0 {
				t = append(t, relation.Null())
			} else {
				t = append(t, relation.Int(g.sums[i]/g.counts[i]))
			}
		}
	}
	return t
}

// GroupBy groups r by the given column positions and computes aggregates.
// The output schema is the group columns (with their original names)
// followed by the aggregate columns (kinds per AggOutputKind).
func GroupBy(r *relation.Relation, groupCols []int, aggs []AggSpec) (*relation.Relation, error) {
	cols := make([]relation.Column, 0, len(groupCols)+len(aggs))
	for _, g := range groupCols {
		cols = append(cols, r.Schema().Col(g))
	}
	for _, a := range aggs {
		cols = append(cols, relation.Column{Name: a.Name, Kind: AggOutputKind(a.Func)})
	}
	out := relation.New(relation.NewSchema(cols...))

	// Group keys sit in a bag in first-seen order; accs[p] folds the rows of
	// the group at position p.
	groups := relation.NewBag(relation.NewSchema(cols[:len(groupCols)]...))
	var accs []*GroupAcc
	key := make(relation.Tuple, len(groupCols))
	for _, t := range r.Rows() {
		for i, g := range groupCols {
			key[i] = t[g]
		}
		h := key.Hash()
		p := groups.Find(key, h)
		if p < 0 {
			groups.AddHash(key, h, 1) // the bag keeps key: take a fresh buffer
			key = make(relation.Tuple, len(groupCols))
			p = int32(len(accs))
			accs = append(accs, NewGroupAcc(len(aggs)))
		}
		accs[p].Add(t, 1, aggs)
	}

	// A global aggregate (no group columns) over an empty input still yields
	// one row, per SQL.
	if len(groupCols) == 0 && len(accs) == 0 {
		groups.Add(relation.Tuple{}, 1)
		accs = append(accs, NewGroupAcc(len(aggs)))
	}

	for p, acc := range accs {
		if err := out.Append(acc.Row(groups.At(int32(p)), aggs)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
