package relation

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns. Column names are case-insensitive
// (the paper's SQL listing mixes cases freely); they are normalised to lower
// case on construction.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from columns. Duplicate names panic: schemas are
// constructed from trusted code paths and a duplicate is a programming error.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{cols: make([]Column, len(cols)), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		c.Name = strings.ToLower(c.Name)
		s.cols[i] = c
		if _, dup := s.byName[c.Name]; dup {
			panic(fmt.Sprintf("relation: duplicate column %q", c.Name))
		}
		s.byName[c.Name] = i
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column {
	out := make([]Column, len(s.cols))
	copy(out, s.cols)
	return out
}

// Index returns the position of the named column and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[strings.ToLower(name)]
	return i, ok
}

// Project returns a new schema containing the named columns in order.
func (s *Schema) Project(names ...string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i, ok := s.Index(n)
		if !ok {
			return nil, fmt.Errorf("relation: no column %q in schema %s", n, s)
		}
		cols = append(cols, s.cols[i])
	}
	return NewSchema(cols...), nil
}

// Equal reports whether two schemas have identical names and kinds in order.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// String renders the schema as (name kind, ...).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one row of a relation. Tuples are treated as immutable once added
// to a relation.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports element-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	}
	return 0
}

// Hash returns a stable hash of the whole tuple: the values' FNV-1a hashes
// folded together. It never builds strings; equality must still be verified
// on hash collisions (see Chain).
func (t Tuple) Hash() uint64 { return HashValues(t) }

// HashCols hashes the projection of t onto the given column positions, for
// index keys over column subsets.
func (t Tuple) HashCols(cols []int) uint64 {
	h := fnvOffset
	for _, c := range cols {
		h ^= t[c].Hash()
		h *= fnvPrime
	}
	return h
}

// HashValues hashes a slice of values the same way HashCols hashes a
// projection, so lookup keys and index keys agree.
func HashValues(vals []Value) uint64 {
	h := fnvOffset
	for _, v := range vals {
		h ^= v.Hash()
		h *= fnvPrime
	}
	return h
}

// String renders the tuple for display.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
