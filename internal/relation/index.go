package relation

// EqIndex is a cached multi-column equality index over a relation: tuple
// positions bucketed by the uint64 hash of the indexed columns, with
// equality verification left to the caller (hash collisions must not join).
// It is owned by the relation itself: the first probe of a
// column mask builds it, appended rows extend it lazily on the next probe,
// and in-place mutation (Delete, Clear, SortBy) invalidates it. Schema-
// renaming views share their base relation's cache (see WithSchema), which
// is what keeps the scheduler's patched requests/history relations' join
// indexes warm across rounds — the generalisation of the SQL protocol's
// one-off byKey map to arbitrary multi-column join keys.
//
// Building and extending mutate the cache and must happen on the relation's
// owning goroutine; Candidates is read-only.
type EqIndex struct {
	cols    []int
	n       int // rows covered so far
	buckets map[uint64][]int32
}

// eqCache holds a relation's built indexes, keyed by column mask. Renamed
// views share the pointer, so an index built through any view warms all of
// them.
type eqCache struct {
	entries map[string]*EqIndex
}

// maskKey encodes a column mask as a map key.
func maskKey(cols []int) string {
	b := make([]byte, 0, 2*len(cols))
	for _, c := range cols {
		for c > 0x7f {
			b = append(b, byte(c)|0x80)
			c >>= 7
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// EqIndex returns the equality index over cols, building it on first use and
// extending it over rows appended since the last probe. The returned index
// is valid until the relation is mutated in place (Delete, Clear, SortBy).
func (r *Relation) EqIndex(cols []int) *EqIndex {
	if r.eq == nil {
		r.eq = &eqCache{entries: make(map[string]*EqIndex, 2)}
	}
	k := maskKey(cols)
	ix := r.eq.entries[k]
	if ix == nil || ix.n > len(r.rows) {
		ix = &EqIndex{
			cols:    append([]int(nil), cols...),
			buckets: make(map[uint64][]int32, len(r.rows)),
		}
		r.eq.entries[k] = ix
	}
	for ; ix.n < len(r.rows); ix.n++ {
		h := r.rows[ix.n].HashCols(ix.cols)
		ix.buckets[h] = append(ix.buckets[h], int32(ix.n))
	}
	return ix
}

// CachedEqIndex returns the index over cols only if one is already warm on
// this relation (or a view sharing its cache), brought up to date with any
// appended rows; nil otherwise — a warmth probe (the invalidation tests
// assert cache lifecycle through it; the join planner itself keys the build
// side off size alone so output order stays deterministic).
func (r *Relation) CachedEqIndex(cols []int) *EqIndex {
	if r.eq == nil || r.eq.entries[maskKey(cols)] == nil {
		return nil
	}
	return r.EqIndex(cols)
}

// invalidateEq drops every cached index (shared views included) after an
// in-place mutation.
func (r *Relation) invalidateEq() {
	if r.eq != nil {
		clear(r.eq.entries)
	}
}

// Candidates returns the positions of rows whose indexed columns hash like
// key. Collisions are possible: callers must verify the column values.
func (ix *EqIndex) Candidates(key []Value) []int32 {
	return ix.buckets[HashValues(key)]
}

// CandidatesHash returns the positions bucketed under a precomputed key
// hash (Tuple.HashCols over the probe side's key columns agrees with the
// build side's bucketing by construction). It allocates nothing.
func (ix *EqIndex) CandidatesHash(h uint64) []int32 {
	return ix.buckets[h]
}

// Cols returns the indexed column positions. Callers must not mutate it.
func (ix *EqIndex) Cols() []int { return ix.cols }
