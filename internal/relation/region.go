package relation

// Region hands out tuples that live for one round: every tuple carved since
// the last Reset stays valid until the next one, and Reset makes the storage
// behind all of them available to the next round at once (region-based
// memory management, Tofte & Talpin 1997). Whatever must outlive the round
// is copied out of the region (Tuple.Clone) before it is kept.
//
// Tuples are carved from chunks that are never re-sliced or grown, so a
// tuple never moves while it lives. A region holds no chunk until its first
// tuple, and its first chunk is small; a round that fills a chunk continues
// in a new one twice its size. Reset then sizes the first chunk for what the
// round used: it replaces the chunks by one chunk of that size (rounded up
// to a power of two) when the round overflowed its first chunk or used under
// a quarter of it. A steady round so carves from one chunk and allocates
// nothing, and a region's footprint follows its rounds, not the largest one
// it once served.
//
// Reset zeroes what the round carved, so a new tuple is all NULLs and a
// rewound region keeps no dead values alive. A Region is not safe for
// concurrent use; its zero value is ready to use.
type Region struct {
	chunks [][]Value // chunks[len-1] is being carved; the others are full
	off    int       // values carved from the last chunk
	used   int       // values carved since the last Reset
}

// minRegionChunk is the size, in values, of a region's smallest chunk.
const minRegionChunk = 64

// New carves an n-column tuple of NULLs, valid until the next Reset.
func (r *Region) New(n int) Tuple {
	k := len(r.chunks)
	if k == 0 || r.off+n > len(r.chunks[k-1]) {
		size := minRegionChunk
		if k > 0 {
			size = 2 * len(r.chunks[k-1])
		}
		r.chunks = append(r.chunks, make([]Value, max(size, n)))
		r.off = 0
		k++
	}
	t := r.chunks[k-1][r.off : r.off+n : r.off+n]
	r.off += n
	r.used += n
	return t
}

// Copy carves a copy of t, valid until the next Reset.
func (r *Region) Copy(t Tuple) Tuple {
	c := r.New(len(t))
	copy(c, t)
	return c
}

// Reset ends the round: every tuple carved since the last Reset is dead, and
// the next New reuses its storage.
func (r *Region) Reset() {
	k := len(r.chunks)
	if k == 0 {
		return
	}
	for _, c := range r.chunks[:k-1] {
		clear(c)
	}
	clear(r.chunks[k-1][:r.off])
	if first := len(r.chunks[0]); k > 1 || (r.used*4 < first && first > minRegionChunk) {
		size := minRegionChunk
		for size < r.used {
			size *= 2
		}
		clear(r.chunks)
		r.chunks = append(r.chunks[:0], make([]Value, size))
	}
	r.off, r.used = 0, 0
}
