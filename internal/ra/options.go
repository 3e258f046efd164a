package ra

import "repro/internal/relation"

// Options configures operator execution. The zero value (and a nil pointer)
// selects the hash algorithms. Every operator runs on the calling goroutine
// and is also available as a package-level function, which is shorthand for
// calling it on a nil *Options.
type Options struct {
	// NestedLoop forces the O(n·m) nested-loop join algorithms: no hash
	// tables, every probe scans the full inner relation.
	// It is the correctness oracle for the hash operators in the property
	// tests and the baseline of the perf trajectory.
	NestedLoop bool
}

func (o *Options) nested() bool { return o != nil && o.NestedLoop }

// nullPad returns an all-NULL tuple of width w (LeftJoin's unmatched-row
// padding; it is copied into output tuples, never retained).
func nullPad(w int) relation.Tuple {
	nulls := make(relation.Tuple, w)
	for i := range nulls {
		nulls[i] = relation.Null()
	}
	return nulls
}
