package relation

import "testing"

// TestRegionTuplesStayPutWithinARound: a tuple carved from a region keeps its
// storage and values however many tuples follow it in the round, across
// chunk boundaries, and starts out all NULL.
func TestRegionTuplesStayPutWithinARound(t *testing.T) {
	var r Region
	var ts []Tuple
	for i := 0; i < 500; i++ {
		n := 1 + i%7
		tp := r.New(n)
		for j := range tp {
			if !tp[j].IsNull() {
				t.Fatalf("tuple %d: column %d of a new tuple is %s, want NULL", i, j, tp[j])
			}
			tp[j] = Int(int64(i))
		}
		if len(tp) != n || cap(tp) != n {
			t.Fatalf("tuple %d: len %d cap %d, want %d", i, len(tp), cap(tp), n)
		}
		ts = append(ts, tp)
	}
	c := r.Copy(Tuple{String("x"), Int(1)})
	for i, tp := range ts {
		for _, v := range tp {
			if !v.Equal(Int(int64(i))) {
				t.Fatalf("tuple %d changed to %s within its round", i, tp)
			}
		}
	}
	if !c.Equal(Tuple{String("x"), Int(1)}) {
		t.Fatalf("Copy carved %s", c)
	}
}

// TestRegionSteadyRoundsAllocateNothing: after one round sized the region,
// rounds of the same size carve from its single chunk, and Reset hands back
// zeroed storage.
func TestRegionSteadyRoundsAllocateNothing(t *testing.T) {
	var r Region
	round := func() {
		r.Reset()
		for i := 0; i < 300; i++ {
			tp := r.New(5)
			if !tp[0].IsNull() {
				t.Fatal("a rewound region handed out a used value")
			}
			tp[0] = String("w")
		}
	}
	round()
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("a steady round allocates %.0f times, want 0", n)
	}
	if got := len(r.chunks); got != 1 {
		t.Fatalf("a steady round carves from %d chunks, want 1", got)
	}
}

// footprint returns the number of values r's chunks hold.
func (r *Region) footprint() int {
	n := 0
	for _, c := range r.chunks {
		n += len(c)
	}
	return n
}

// TestRegionFootprintFollowsRounds: a region holds no chunk until it is
// used, and after a burst round its footprint returns to what the rounds
// use, at most twice a round's values (or the smallest chunk).
func TestRegionFootprintFollowsRounds(t *testing.T) {
	var r Region
	r.Reset()
	if r.footprint() != 0 {
		t.Fatalf("an unused region holds %d values", r.footprint())
	}
	fill := func(values int) {
		r.Reset()
		for i := 0; i < values/5; i++ {
			r.New(5)
		}
	}
	fill(10)
	if r.footprint() > minRegionChunk {
		t.Fatalf("a small first round took %d values, want at most %d", r.footprint(), minRegionChunk)
	}
	fill(100000) // a burst
	for i := 0; i < 20; i++ {
		fill(1000)
	}
	r.Reset()
	if r.footprint() > 2*1000 {
		t.Fatalf("after the burst, rounds of 1000 values leave a footprint of %d", r.footprint())
	}
}
