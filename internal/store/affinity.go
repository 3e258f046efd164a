// The transaction-affinity index of the partitioned scheduler: which shards
// a transaction has touched (its admitted requests' partitions — a superset
// of the shards holding its history rows, since requests execute where they
// were admitted). The index is what routes cross-partition terminations: a
// commit or abort must release locks in every touched shard. It holds no
// per-request placement: a request key is submitted once (the middleware
// refuses a changed duplicate of a live key), so no copy ever needs finding
// on another shard.

package store

import (
	"math/bits"
	"sync"
)

// affinityStripes is the lock-striping factor. Admission is concurrent (many
// client workers route at once); striping by transaction keeps unrelated
// transactions off each other's lock.
const affinityStripes = 16

// Affinity tracks per-transaction shard masks. Partition counts are capped
// at 64 (partition.go), so one word per transaction is always enough. Safe
// for concurrent use.
type Affinity struct {
	stripes [affinityStripes]affinityStripe
}

type affinityStripe struct {
	mu     sync.Mutex
	shards map[int64]uint64
}

// NewAffinity creates an empty index.
func NewAffinity() *Affinity {
	a := &Affinity{}
	for i := range a.stripes {
		a.stripes[i].shards = make(map[int64]uint64)
	}
	return a
}

func (a *Affinity) stripe(ta int64) *affinityStripe {
	h := uint64(ta) * 0x9E3779B97F4A7C15
	return &a.stripes[(h^h>>32)&(affinityStripes-1)]
}

// Touch marks shard touched by ta.
func (a *Affinity) Touch(ta int64, shard int) {
	s := a.stripe(ta)
	s.mu.Lock()
	s.shards[ta] |= 1 << uint(shard)
	s.mu.Unlock()
}

// ShardsOf returns the bitmask of shards ta has touched (0 if unknown).
func (a *Affinity) ShardsOf(ta int64) uint64 {
	s := a.stripe(ta)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[ta]
}

// Drop forgets a transaction (it terminated — committed, aborted or was
// chosen as a victim — so no further requests will route under its number).
func (a *Affinity) Drop(ta int64) {
	s := a.stripe(ta)
	s.mu.Lock()
	delete(s.shards, ta)
	s.mu.Unlock()
}

// Len returns the number of tracked transactions (tests and diagnostics).
func (a *Affinity) Len() int {
	n := 0
	for i := range a.stripes {
		s := &a.stripes[i]
		s.mu.Lock()
		n += len(s.shards)
		s.mu.Unlock()
	}
	return n
}

// ShardList expands a shard bitmask into ascending shard indices, appending
// onto dst.
func ShardList(mask uint64, dst []int) []int {
	for mask != 0 {
		s := bits.TrailingZeros64(mask)
		dst = append(dst, s)
		mask &^= 1 << uint(s)
	}
	return dst
}
