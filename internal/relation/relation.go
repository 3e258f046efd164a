package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Relation is an in-memory bag of tuples over a fixed schema. It is the
// universal currency of the system: Datalog EDB/IDB predicates, mini-SQL
// tables and intermediate results, the scheduler's pending-request store and
// the history store are all Relations.
//
// A Relation is not safe for concurrent mutation; the scheduler serialises
// access around its rounds (set-at-a-time processing makes this natural).
type Relation struct {
	schema *Schema
	rows   []Tuple

	// eq caches multi-column equality indexes built by the ra operators
	// (see EqIndex). It is shared with schema-renaming views (WithSchema)
	// and cleared by in-place mutation; appends extend it lazily. sharedEq
	// marks a view: its first append detaches the cache (copy-on-append),
	// so rows appended through a view can never poison the base's indexes.
	eq       *eqCache
	sharedEq bool
}

// New creates an empty relation with the given schema.
func New(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples (bag semantics: duplicates count).
func (r *Relation) Len() int { return len(r.rows) }

// Row returns the i-th tuple. The caller must not mutate it.
func (r *Relation) Row(i int) Tuple { return r.rows[i] }

// Rows returns the underlying tuple slice. The caller must not mutate it.
func (r *Relation) Rows() []Tuple { return r.rows }

// Append adds a tuple after validating arity and kinds. NULL is accepted in
// any column (it arises from outer joins), and a column whose declared kind
// is KindNull accepts any value (used by the dynamically typed Datalog
// engine, whose predicates carry no column types).
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation: arity mismatch: tuple %d vs schema %d", len(t), r.schema.Len())
	}
	for i, v := range t {
		if v.Kind() != KindNull && r.schema.Col(i).Kind != KindNull && v.Kind() != r.schema.Col(i).Kind {
			return fmt.Errorf("relation: column %q expects %s, got %s",
				r.schema.Col(i).Name, r.schema.Col(i).Kind, v.Kind())
		}
	}
	r.detachSharedEq()
	r.rows = append(r.rows, t)
	return nil
}

// detachSharedEq gives a view its own (empty) index cache before its first
// append: a row appended through a view must never reach the base's shared
// indexes, whose positions would then disagree with the base's rows. The
// rows themselves need no copy — the view's slice is capacity-clipped, so
// the append reallocates.
func (r *Relation) detachSharedEq() {
	if r.sharedEq {
		r.eq = nil
		r.sharedEq = false
	}
}

// detachSharedRows is the copy-on-write step before an in-place mutation
// (Clear, Delete, SortBy) through a view: those rewrite the row slice's
// backing array, which the view shares with its base, so the view first
// takes a private copy (and its own cache). Mutations through a view can
// then never corrupt the base.
func (r *Relation) detachSharedRows() {
	if !r.sharedEq {
		return
	}
	rows := make([]Tuple, len(r.rows))
	copy(rows, r.rows)
	r.rows = rows
	r.eq = nil
	r.sharedEq = false
}

// MustAppend is Append that panics on error; for trusted construction sites.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// AppendAll appends every tuple of o, which must have an equal schema layout
// (names are ignored; arity and kinds must match positionally).
func (r *Relation) AppendAll(o *Relation) error {
	if o.schema.Len() != r.schema.Len() {
		return fmt.Errorf("relation: appendAll arity mismatch %d vs %d", o.schema.Len(), r.schema.Len())
	}
	for _, t := range o.rows {
		if err := r.Append(t); err != nil {
			return err
		}
	}
	return nil
}

// Clear removes all tuples, keeping capacity. Clearing a view detaches it
// from its base first (a later append must not write into the shared
// backing array).
func (r *Relation) Clear() {
	r.detachSharedRows()
	r.rows = r.rows[:0]
	r.invalidateEq()
}

// Clone returns a deep-enough copy (tuples are immutable, so the row slice is
// copied but tuples are shared). The clone does not share the index cache:
// it may be mutated independently (OrderBy sorts clones in place).
func (r *Relation) Clone() *Relation {
	rows := make([]Tuple, len(r.rows))
	copy(rows, r.rows)
	return &Relation{schema: r.schema, rows: rows}
}

// WithSchema returns a read-only view of r under a schema of equal layout
// (arity and kinds must match positionally; only names may differ). The view
// shares r's tuples and its equality-index cache — renaming a base relation
// per round does not discard the indexes warmed on it. Mutating the view is
// always safe for the base: the row slice is capacity-clipped and the first
// append detaches the shared cache, while Clear/Delete/SortBy take a private
// row copy first (copy-on-write). The reverse does not hold — a view must
// not outlive an in-place mutation of the base, whose Delete and SortBy
// rewrite the shared backing array under the view's rows. The executor
// creates views per query and mutations happen between queries, so the
// natural usage pattern is safe; callers caching a view across rounds must
// re-create it after patching the base.
func (r *Relation) WithSchema(s *Schema) (*Relation, error) {
	if s.Len() != r.schema.Len() {
		return nil, fmt.Errorf("relation: view arity mismatch %d vs %d", s.Len(), r.schema.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if s.Col(i).Kind != r.schema.Col(i).Kind {
			return nil, fmt.Errorf("relation: view column %q kind %s does not match base %q kind %s",
				s.Col(i).Name, s.Col(i).Kind, r.schema.Col(i).Name, r.schema.Col(i).Kind)
		}
	}
	if r.eq == nil {
		// Materialise the shared cache now, so indexes built through the
		// view warm the base (and every later view) too.
		r.eq = &eqCache{entries: make(map[string]*EqIndex, 2)}
	}
	return &Relation{schema: s, rows: r.rows[:len(r.rows):len(r.rows)], eq: r.eq, sharedEq: true}, nil
}

// AppendTrusted appends tuples without schema validation. It is for
// operators emitting rows built from already validated inputs (the ra
// package's filter and join loops); misuse can break the relation's typing
// invariants.
func (r *Relation) AppendTrusted(rows ...Tuple) {
	r.detachSharedEq()
	r.rows = append(r.rows, rows...)
}

// Distinct returns a new relation with duplicate tuples removed, preserving
// first-occurrence order. Deduplication is by tuple hash with equality
// verification, so no per-tuple key strings are built.
func (r *Relation) Distinct() *Relation {
	seen := NewTupleSet(len(r.rows))
	out := New(r.schema)
	for _, t := range r.rows {
		if seen.Add(t) {
			out.rows = append(out.rows, t)
		}
	}
	return out
}

// Filter returns the tuples satisfying pred.
func (r *Relation) Filter(pred func(Tuple) bool) *Relation {
	out := New(r.schema)
	for _, t := range r.rows {
		if pred(t) {
			out.rows = append(out.rows, t)
		}
	}
	return out
}

// Delete removes all tuples satisfying pred, returning how many were removed.
// Row positions shift, so any cached equality indexes are dropped; deleting
// through a view copies the rows first (the compaction must not rewrite the
// base's backing array).
func (r *Relation) Delete(pred func(Tuple) bool) int {
	r.detachSharedRows()
	kept := r.rows[:0]
	removed := 0
	for _, t := range r.rows {
		if pred(t) {
			removed++
		} else {
			kept = append(kept, t)
		}
	}
	r.rows = kept
	if removed > 0 {
		r.invalidateEq()
	}
	return removed
}

// SortBy sorts tuples in place by the named columns ascending (a view is
// detached onto a private copy first).
func (r *Relation) SortBy(names ...string) error {
	r.detachSharedRows()
	idx := make([]int, len(names))
	for i, n := range names {
		j, ok := r.schema.Index(n)
		if !ok {
			return fmt.Errorf("relation: sort: no column %q", n)
		}
		idx[i] = j
	}
	sort.SliceStable(r.rows, func(a, b int) bool {
		ta, tb := r.rows[a], r.rows[b]
		for _, j := range idx {
			if c := ta[j].Compare(tb[j]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	r.invalidateEq()
	return nil
}

// Contains reports whether the relation holds an equal tuple.
func (r *Relation) Contains(t Tuple) bool {
	for _, u := range r.rows {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

// Equal reports whether two relations hold the same bag of tuples (order
// insensitive) over schemas of equal layout.
func (r *Relation) Equal(o *Relation) bool {
	if r.schema.Len() != o.schema.Len() || len(r.rows) != len(o.rows) {
		return false
	}
	counts := newTupleCounter(len(r.rows))
	for _, t := range r.rows {
		counts.inc(t)
	}
	for _, t := range o.rows {
		if !counts.dec(t) {
			return false
		}
	}
	return true
}

// String renders the relation as a small table, ordered as stored.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.schema.String())
	b.WriteByte('\n')
	for _, t := range r.rows {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
