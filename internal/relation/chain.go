package relation

import (
	"fmt"
	"slices"
)

// Chain is a chained hash table over dense positions 0..n-1, the layout every
// flat store of the system shares (the Datalog fact sets, Bag and its
// indexes, the SQL view cache's signed deltas). The owner keeps its entries
// dense in parallel slices — a removal swap-moves the last entry into the
// hole — and files each position under hash & mask in a flat power-of-two
// bucket array, resolving collisions and slot sharing by equality on the
// walk. Chains are doubly linked through two int32 arrays parallel to the
// entries, and a bucket's first entry carries the bucket's number as its back
// link, so filing, dropping and the swap-move each touch a constant number of
// cells — without hashing anything again — however long a chain is; no maps,
// key strings or per-bucket slices are built. A position may also be filed
// nowhere (Skip): an index that excludes NULL keys still keeps its arrays
// parallel to the owner's.
//
// The owner decides when to Grow (typically when its entry count reaches
// Buckets, so chains stay short) and whether to Shrink; all chains of one
// owner keep equally many buckets.
type Chain struct {
	buckets []int32 // position+1 of the first entry filed under the slot; 0 empty
	links   []int32 // links[i]: position+1 after entry i in its bucket; 0 ends
	prev    []int32 // prev[i]: position+1 before entry i; -(slot+1) when i heads bucket slot; 0 when filed nowhere
}

// MinBuckets is the bucket count of a new chain (a power of two); Shrink never
// goes below it.
const MinBuckets = 8

// NewChain returns an empty chain with MinBuckets buckets.
func NewChain() Chain { return Chain{buckets: make([]int32, MinBuckets)} }

// Buckets returns the bucket count.
func (c *Chain) Buckets() int { return len(c.buckets) }

// First returns the first position filed in h's bucket, or -1. The bucket
// holds every entry whose hash shares h's low bits: callers verify equality.
func (c *Chain) First(h uint64) int32 { return c.buckets[h&uint64(len(c.buckets)-1)] - 1 }

// Next returns the position after p in its bucket, or -1.
func (c *Chain) Next(p int32) int32 { return c.links[p] - 1 }

// Link files the next position at the front of h's bucket.
func (c *Chain) Link(h uint64) {
	slot := int32(h & uint64(len(c.buckets)-1))
	pos, old := int32(len(c.links)), c.buckets[slot]
	if old != 0 {
		c.prev[old-1] = pos + 1
	}
	c.links = append(c.links, old)
	c.prev = append(c.prev, -slot-1)
	c.buckets[slot] = pos + 1
}

// Skip appends the next position without filing it anywhere.
func (c *Chain) Skip() {
	c.links = append(c.links, 0)
	c.prev = append(c.prev, 0)
}

// setNext makes n (a position+1, or 0) what follows p: a position+1, or the
// head marker of a bucket.
func (c *Chain) setNext(p, n int32) {
	if p < 0 {
		c.buckets[-p-1] = n
	} else {
		c.links[p-1] = n
	}
	if n != 0 {
		c.prev[n-1] = p
	}
}

// Drop removes position pos and moves the last position's entry into it,
// mirroring the owner's swap-remove.
func (c *Chain) Drop(pos int32) {
	last := int32(len(c.links) - 1)
	if p := c.prev[pos]; p != 0 {
		c.setNext(p, c.links[pos])
	}
	if pos != last {
		if p := c.prev[last]; p != 0 {
			c.setNext(p, pos+1)
			c.setNext(pos+1, c.links[last])
		} else {
			c.links[pos], c.prev[pos] = 0, 0
		}
	}
	c.links, c.prev = c.links[:last], c.prev[:last]
}

// Grow doubles the bucket array, splitting every bucket in place between its
// old slot and slot+old by the next bit of hash(pos). Entries that stay
// together keep their relative order and no position changes, so a walk that
// stands on an entry when an insert below it grows the chain (a recursive
// Datalog rule probing the predicate it derives) still finds every entry of
// its key ahead of it.
func (c *Chain) Grow(hash func(pos int32) uint64) {
	old := len(c.buckets)
	c.buckets = append(c.buckets, make([]int32, old)...)
	for b := 0; b < old; b++ {
		p := c.buckets[b]
		c.buckets[b] = 0
		tail := [2]int32{-int32(b) - 1, -int32(b+old) - 1} // what ends the low and the high bucket so far
		for p != 0 {
			n := c.links[p-1]
			side := 0
			if hash(p-1)&uint64(old) != 0 {
				side = 1
			}
			c.links[p-1] = 0
			c.setNext(tail[side], p)
			tail[side] = p
			p = n
		}
	}
}

// Shrink halves the bucket array (never below MinBuckets), appending each
// upper bucket's entries to its lower twin, and reallocates the arrays at the
// halved size so a drained burst releases its memory.
func (c *Chain) Shrink() {
	half := len(c.buckets) / 2
	if half < MinBuckets {
		return
	}
	for b := 0; b < half; b++ {
		hi := c.buckets[b+half]
		if hi == 0 {
			continue
		}
		tail := -int32(b) - 1
		for p := c.buckets[b]; p != 0; p = c.links[p-1] {
			tail = p
		}
		c.setNext(tail, hi)
	}
	c.buckets = resized(c.buckets[:half], half)
	c.links = resized(c.links, half)
	c.prev = resized(c.prev, half)
}

// resized copies s into a fresh slice of capacity max(n, len(s)).
func resized[T any](s []T, n int) []T {
	return append(make([]T, 0, max(n, len(s))), s...)
}

// Reserve sizes an empty chain's bucket array for n entries.
func (c *Chain) Reserve(n int) {
	nb := len(c.buckets)
	for nb < n {
		nb *= 2
	}
	if nb > len(c.buckets) {
		c.buckets = make([]int32, nb)
	}
}

// ReserveLinks sizes an empty chain's link arrays for n entries, for an
// owner about to file that many (Bag.Reserve). Reserve leaves them alone: an
// index reserves buckets for entries it may never file.
func (c *Chain) ReserveLinks(n int) {
	c.links, c.prev = slices.Grow(c.links, n), slices.Grow(c.prev, n)
}

// Reset empties the chain, retaining its capacity and bucket count. A chain
// with fewer entries than buckets clears only the buckets its entries head,
// so resetting a sparsely used pooled chain costs its use, not its size.
func (c *Chain) Reset() {
	if len(c.prev) < len(c.buckets) {
		for _, p := range c.prev {
			if p < 0 {
				c.buckets[-p-1] = 0
			}
		}
	} else {
		clear(c.buckets)
	}
	c.links, c.prev = c.links[:0], c.prev[:0]
}

// Check verifies the layout every operation must preserve, for n positions
// whose key hashes key reports (filed false for a Skip position): a
// power-of-two bucket count of at least MinBuckets, arrays parallel to the
// positions, and in every bucket each filed position reachable exactly once —
// from the bucket its hash & mask selects — by a walk without cycle on which
// prev is the exact inverse of links. It is the oracle of the owners' tests.
func (c *Chain) Check(n int, key func(pos int32) (h uint64, filed bool)) error {
	nb := len(c.buckets)
	if nb < MinBuckets || nb&(nb-1) != 0 {
		return fmt.Errorf("chain: %d buckets", nb)
	}
	if len(c.links) != n || len(c.prev) != n {
		return fmt.Errorf("chain: %d links, %d prev for %d positions", len(c.links), len(c.prev), n)
	}
	seen := make([]bool, n)
	for b, p := range c.buckets {
		before := -int32(b) - 1 // the head carries its bucket's marker
		for ; p != 0; p = c.links[p-1] {
			pos := p - 1
			if pos < 0 || int(pos) >= n {
				return fmt.Errorf("chain: position %d out of range", pos)
			}
			if seen[pos] {
				return fmt.Errorf("chain: position %d reached twice (cycle or shared tail)", pos)
			}
			seen[pos] = true
			h, filed := key(pos)
			if !filed {
				return fmt.Errorf("chain: unfiled position %d is in bucket %d", pos, b)
			}
			if got := int(h & uint64(nb-1)); got != b {
				return fmt.Errorf("chain: position %d filed under bucket %d, hashes to %d", pos, b, got)
			}
			if c.prev[pos] != before {
				return fmt.Errorf("chain: prev[%d] = %d, reached from %d", pos, c.prev[pos], before)
			}
			before = p
		}
	}
	for pos, ok := range seen {
		if _, filed := key(int32(pos)); ok != filed {
			return fmt.Errorf("chain: position %d filed=%v but reachable=%v", pos, filed, ok)
		}
		if !ok && (c.links[pos] != 0 || c.prev[pos] != 0) {
			return fmt.Errorf("chain: unfiled position %d links %d prev %d", pos, c.links[pos], c.prev[pos])
		}
	}
	return nil
}
