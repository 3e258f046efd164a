package scheduler

import "slices"

// terminatedSet is the front end's record of terminated transactions, kept
// in bounded memory the way PostgreSQL's commit log is bounded by its xmin
// horizon and Roaring bitmaps by their run containers. Ids are chosen by
// clients but dense in practice (every shipped client counts them up), so
// the set is 64-id blocks: a run covers a range of blocks, a block inside
// one is full unless partial holds its word, and a block outside every run
// holds no terminated id. Only a block that still holds a live or unused id
// costs a word, and runs stay few, since a termination near a run extends
// it: memory follows the live transactions, not uptime.
type terminatedSet struct {
	runs    []blockRun // sorted, disjoint, not touching
	partial map[int64]uint64
}

// blockRun is the block range [lo, hi).
type blockRun struct{ lo, hi int64 }

// runReach is the widest gap, in blocks, a run grows over to take in a new
// termination (each block it covers so enters partial, empty).
const runReach = 64

// find returns the index of the first run ending above block b and whether
// that run covers b.
func (s *terminatedSet) find(b int64) (int, bool) {
	i, _ := slices.BinarySearchFunc(s.runs, b, func(r blockRun, b int64) int {
		if r.hi <= b {
			return -1
		}
		return 1
	})
	return i, i < len(s.runs) && s.runs[i].lo <= b
}

// has reports whether ta terminated.
func (s *terminatedSet) has(ta int64) bool {
	if w, ok := s.partial[ta>>6]; ok {
		return w&(1<<(ta&63)) != 0
	}
	_, covered := s.find(ta >> 6)
	return covered
}

// add records ta's termination.
func (s *terminatedSet) add(ta int64) {
	b, bit := ta>>6, uint64(1)<<(ta&63)
	if w, ok := s.partial[b]; ok {
		if w |= bit; w == ^uint64(0) {
			delete(s.partial, b)
		} else {
			s.partial[b] = w
		}
		return
	}
	i, covered := s.find(b)
	if covered {
		return
	}
	if s.partial == nil {
		s.partial = make(map[int64]uint64)
	}
	lo, hi := b, b+1 // the blocks the run takes in
	switch {
	case i > 0 && b-s.runs[i-1].hi < runReach:
		i--
		lo, s.runs[i].hi = s.runs[i].hi, b+1
	case i < len(s.runs) && s.runs[i].lo-b <= runReach:
		hi, s.runs[i].lo = s.runs[i].lo, b
	default:
		s.runs = slices.Insert(s.runs, i, blockRun{b, b + 1})
	}
	for c := lo; c < hi; c++ {
		s.partial[c] = 0
	}
	s.partial[b] = bit
	if i+1 < len(s.runs) && s.runs[i].hi == s.runs[i+1].lo {
		s.runs[i].hi = s.runs[i+1].hi
		s.runs = slices.Delete(s.runs, i+1, i+2)
	}
}
