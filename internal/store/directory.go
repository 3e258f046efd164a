// The slot directory of the partitioned scheduler: objects hash into a fixed
// number of slots and a versioned slot→shard routing table owns placement.
// Routing stays a pure function of the object — every request touching an
// object, and every history row recording one, lands in the shard the table
// names — but the table itself is data, so a rebalancer can move a hot slot
// to another shard without changing the hash.
//
// The table is an immutable snapshot behind an atomic pointer: readers
// (concurrent admission) load it wait-free; the single writer (the round
// loop's rebalance step) builds a new table and swaps it in, bumping the
// version. A reader racing a swap routes by one consistent table — either the
// old or the new — and the round loop re-routes drained admissions against
// the current table before admitting them, so a stale route never outlives
// the drain that observes it.

package store

import (
	"fmt"
	"sync/atomic"
)

// DefaultSlots is the directory size when the caller does not choose one:
// enough granularity that a single slot holds ~0.1% of a uniform key space,
// small enough that per-slot load accounting is a cache-resident array.
const DefaultSlots = 1024

// SlotMove is one rebalancing step: route slot Slot to shard To.
type SlotMove struct {
	Slot int
	To   int
}

// routeTable is one immutable routing snapshot: slot i lives on shard
// shards[i].
type routeTable struct {
	version uint64
	shards  []int32
}

// Directory is the versioned slot→shard routing table. Reads are wait-free
// and safe for concurrent use; Apply must stay on one goroutine (the round
// loop).
type Directory struct {
	nslots int
	parts  int
	table  atomic.Pointer[routeTable]
}

// NewDirectory builds a directory of slots slots over parts shards
// (slots <= 0 selects DefaultSlots), with slot i initially routed to shard
// i % parts — a uniform spread of a uniform hash.
func NewDirectory(slots, parts int) *Directory {
	if slots <= 0 {
		slots = DefaultSlots
	}
	d := &Directory{nslots: slots, parts: parts}
	t := &routeTable{shards: make([]int32, slots)}
	for i := range t.shards {
		t.shards[i] = int32(i % parts)
	}
	d.table.Store(t)
	return d
}

// Slots returns the directory size.
func (d *Directory) Slots() int { return d.nslots }

// Partitions returns the shard count the directory routes over.
func (d *Directory) Partitions() int { return d.parts }

// Version returns the current table version (0 until the first Apply).
func (d *Directory) Version() uint64 { return d.table.Load().version }

// SlotOf returns the slot an object hashes into — independent of the routing
// table, so a row's slot never changes.
func (d *Directory) SlotOf(obj int64) int {
	h := uint64(obj) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(h % uint64(d.nslots))
}

// ForObject returns the shard owning an object under the current table.
func (d *Directory) ForObject(obj int64) int {
	return int(d.table.Load().shards[d.SlotOf(obj)])
}

// ForTA returns a fallback home shard for a transaction that never touched an
// object (a bare termination). Independent of the routing table, so the
// fallback is stable across rebalances.
func (d *Directory) ForTA(ta int64) int {
	h := uint64(ta) * 0xFF51AFD7ED558CCD
	h ^= h >> 32
	return int(h % uint64(d.parts))
}

// RouteOf returns the shard slot currently routes to.
func (d *Directory) RouteOf(slot int) int {
	return int(d.table.Load().shards[slot])
}

// Apply installs the given moves as a new table version. It validates every
// move (slot and shard in range) and returns the new version; an invalid
// move leaves the table untouched. Single writer only.
func (d *Directory) Apply(moves []SlotMove) (uint64, error) {
	old := d.table.Load()
	next := &routeTable{
		version: old.version + 1,
		shards:  append([]int32(nil), old.shards...),
	}
	for _, m := range moves {
		if m.Slot < 0 || m.Slot >= d.nslots {
			return old.version, fmt.Errorf("store: directory: slot %d out of range [0,%d)", m.Slot, d.nslots)
		}
		if m.To < 0 || m.To >= d.parts {
			return old.version, fmt.Errorf("store: directory: slot %d target shard %d out of range [0,%d)", m.Slot, m.To, d.parts)
		}
		next.shards[m.Slot] = int32(m.To)
	}
	d.table.Store(next)
	return next.version, nil
}
