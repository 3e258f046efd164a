package store

import (
	"sync"
	"testing"
)

// TestDirectoryRouting pins the slot directory's contract: stable slot
// hashing, in-range initial routes, move semantics, version bumps,
// and validation errors that leave the table untouched.
func TestDirectoryRouting(t *testing.T) {
	d := NewDirectory(0, 4)
	if d.Slots() != DefaultSlots {
		t.Fatalf("Slots() = %d, want %d", d.Slots(), DefaultSlots)
	}
	if d.Version() != 0 {
		t.Fatalf("fresh directory version = %d, want 0", d.Version())
	}
	for o := int64(0); o < 1000; o++ {
		slot := d.SlotOf(o)
		if slot < 0 || slot >= d.Slots() {
			t.Fatalf("SlotOf(%d) = %d out of range", o, slot)
		}
		if again := d.SlotOf(o); again != slot {
			t.Fatalf("SlotOf(%d) unstable: %d then %d", o, slot, again)
		}
		s := d.ForObject(o)
		if s < 0 || s >= 4 {
			t.Fatalf("ForObject(%d) = %d out of range", o, s)
		}
		if want := d.RouteOf(slot); s != want {
			t.Fatalf("ForObject(%d) = %d but its slot %d routes to %d", o, s, slot, want)
		}
	}

	// A move redirects every object of the slot; other slots are untouched.
	obj := int64(42)
	slot := d.SlotOf(obj)
	from := d.ForObject(obj)
	to := (from + 1) % 4
	v, err := d.Apply([]SlotMove{{Slot: slot, To: to}})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || d.Version() != 1 {
		t.Fatalf("version after one Apply = %d/%d, want 1", v, d.Version())
	}
	if got := d.ForObject(obj); got != to {
		t.Fatalf("ForObject(%d) = %d after move, want %d", obj, got, to)
	}
	other := int64(43)
	for d.SlotOf(other) == slot {
		other++
	}
	if got := d.ForObject(other); got != d.RouteOf(d.SlotOf(other)) {
		t.Fatalf("unmoved slot rerouted: object %d -> %d", other, got)
	}

	// Invalid moves fail without touching the table or the version.
	before := d.Version()
	for _, bad := range [][]SlotMove{
		{{Slot: -1, To: 0}},
		{{Slot: d.Slots(), To: 0}},
		{{Slot: 0, To: 4}},
		{{Slot: 0, To: -1}},
		{{Slot: 1, To: 2}, {Slot: slot, To: 5}},
	} {
		if _, err := d.Apply(bad); err == nil {
			t.Fatalf("Apply(%v) accepted", bad)
		}
	}
	if d.Version() != before {
		t.Fatalf("failed Apply bumped version: %d -> %d", before, d.Version())
	}
	if got := d.ForObject(obj); got != to {
		t.Fatalf("failed Apply changed routes: object %d -> %d, want %d", obj, got, to)
	}

	// ForTA is table-independent: stable across every rebalance above.
	for ta := int64(0); ta < 100; ta++ {
		s := d.ForTA(ta)
		if s < 0 || s >= 4 {
			t.Fatalf("ForTA(%d) = %d out of range", ta, s)
		}
	}
}

// TestDirectoryConcurrentReaders races wait-free readers against the single
// writer swapping tables (-race coverage): every read must return an
// in-range shard from one consistent table version.
func TestDirectoryConcurrentReaders(t *testing.T) {
	d := NewDirectory(128, 8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				o := int64(g*100003 + i)
				if s := d.ForObject(o); s < 0 || s >= 8 {
					t.Errorf("ForObject(%d) = %d out of range", o, s)
					return
				}
				d.RouteOf(d.SlotOf(o))
				d.Version()
			}
		}(g)
	}
	for i := 0; i < 2000; i++ {
		if _, err := d.Apply([]SlotMove{{Slot: i % 128, To: i % 8}}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAffinityConcurrentRouteDrop races Touch, ShardsOf and Drop across
// goroutines (-race coverage of the striped index): after the dust settles,
// the index still answers exactly, and dropped transactions are gone.
func TestAffinityConcurrentRouteDrop(t *testing.T) {
	a := NewAffinity()
	const tas = 64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ta := int64((g*500 + i) % tas)
				switch i % 3 {
				case 0:
					a.Touch(ta, (g+i)%4)
				case 1:
					a.ShardsOf(ta)
				case 2:
					if i%25 == 2 {
						a.Drop(ta)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Sequential aftermath: the index still works exactly.
	a.Drop(7)
	if got := a.ShardsOf(7); got != 0 {
		t.Fatalf("dropped transaction still has mask %b", got)
	}
	for _, s := range []int{2, 3, 1, 2} {
		a.Touch(7, s)
	}
	if mask := a.ShardsOf(7); mask != 1<<1|1<<2|1<<3 {
		t.Fatalf("mask %b after touching shards 1-3, want %b", mask, 1<<1|1<<2|1<<3)
	}
	before := a.Len()
	a.Drop(7)
	if a.Len() != before-1 || a.ShardsOf(7) != 0 {
		t.Fatalf("Drop left Len %d (was %d), mask %b", a.Len(), before, a.ShardsOf(7))
	}
}
