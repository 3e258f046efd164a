package relation

import (
	"fmt"
	"strings"
)

// Relation is an in-memory bag of tuples over a fixed schema, the form
// tables enter and results leave the query engines in: mini-SQL catalogs
// and results, Datalog facts read out, CSV files (the engines themselves
// hold Bags, and the scheduler's pending and history stores are slot
// stores, see internal/store). A Relation is append-only: nothing rewrites
// rows in place, so a view (WithSchema) can share its base's rows.
//
// A Relation is not safe for concurrent mutation; the scheduler serialises
// access around its rounds (set-at-a-time processing makes this natural).
type Relation struct {
	schema *Schema
	rows   []Tuple
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
	r.rows = append(r.rows, t)
	return nil
}

// MustAppend is Append that panics on error; for trusted construction sites.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// WithSchema returns a view of r under a schema of equal layout (arity and
// kinds must match positionally; only names may differ). The view shares r's
// tuples through a capacity-clipped row slice, so an append to either side
// reallocates instead of writing under the other's rows.
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
	return &Relation{schema: s, rows: r.rows[:len(r.rows):len(r.rows)]}, nil
}

// AppendTrusted appends tuples without schema validation. It is for rows
// built from already validated inputs (a view cache's result, say); misuse
// can break the relation's typing invariants.
func (r *Relation) AppendTrusted(rows ...Tuple) {
	r.rows = append(r.rows, rows...)
}

// Distinct returns a new relation with duplicate tuples removed, preserving
// first-occurrence order.
func (r *Relation) Distinct() *Relation {
	seen := NewBag(r.schema)
	out := New(r.schema)
	for _, t := range r.rows {
		if seen.Add(t, 1) == 1 {
			out.rows = append(out.rows, t)
		}
	}
	return out
}

// Equal reports whether two relations hold the same bag of tuples (order
// insensitive) over schemas of equal layout.
func (r *Relation) Equal(o *Relation) bool {
	if r.schema.Len() != o.schema.Len() || len(r.rows) != len(o.rows) {
		return false
	}
	counts := BagOf(r)
	for _, t := range o.rows {
		if _, ok := counts.Remove(t, 1); !ok {
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
