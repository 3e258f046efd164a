package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"
)

// The on-disk decoders under fuzz: a journal record, the journal header and
// the page file. Each target's seed corpus holds a valid frame, a torn tail,
// a bad CRC and an oversized length. With reseal set, the target recomputes
// the CRCs of the mutated input first, so the fuzzer reaches the checks
// behind them. Invariants: no panic, parse(encode(x)) = x for whatever
// parses, and (page file) no allocation sized by a length the input claims
// but does not hold.

// resealFrames recomputes the CRC32 of every whole frame of the given size
// in b (CRC over bytes 4..size, stored in bytes 0..4).
func resealFrames(b []byte, size int) {
	for off := 0; off+size <= len(b); off += size {
		binary.LittleEndian.PutUint32(b[off:off+4], crc32.ChecksumIEEE(b[off+4:off+size]))
	}
}

// seedFrames adds the four seed shapes of a valid encoding: as is, torn, with
// a flipped payload bit, and with trailing bytes past its length.
func seedFrames(f *testing.F, valid []byte, extra ...any) {
	f.Helper()
	bad := bytes.Clone(valid)
	bad[len(bad)-5] ^= 0x10
	for _, in := range [][]byte{valid, valid[:len(valid)-7], bad, append(bytes.Clone(valid), make([]byte, 40)...)} {
		for _, reseal := range []bool{false, true} {
			f.Add(append([]any{in}, append(extra, reseal)...)...)
		}
	}
}

func FuzzParseRecord(f *testing.F) {
	valid := make([]byte, recordSize)
	putRecord(valid, jrec{lsn: 7, ta: 3, obj: -12, typ: recCommit})
	seedFrames(f, valid)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			resealFrames(data, recordSize)
		}
		r, ok := parseRecord(data)
		if !ok {
			return
		}
		if len(data) < recordSize {
			t.Fatalf("parsed a %d-byte frame", len(data))
		}
		enc := make([]byte, recordSize)
		putRecord(enc, r)
		if r2, ok := parseRecord(enc); !ok || r2 != r {
			t.Fatalf("parse(encode(%+v)) = %+v, %v", r, r2, ok)
		}
	})
}

func FuzzParseJournalHeader(f *testing.F) {
	valid := make([]byte, recordSize)
	putJournalHeader(valid, 41, 1<<16)
	seedFrames(f, valid)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			resealFrames(data, recordSize)
		}
		base, rows, err := parseJournalHeader(data)
		if err != nil {
			return
		}
		enc := make([]byte, recordSize)
		putJournalHeader(enc, base, rows)
		if b2, r2, err := parseJournalHeader(enc); err != nil || b2 != base || r2 != rows {
			t.Fatalf("parse(encode(%d, %d)) = %d, %d, %v", base, rows, b2, r2, err)
		}
	})
}

// FuzzReadPages fuzzes decodePages, the byte decoder behind readPages, for a
// table of rows rows.
func FuzzReadPages(f *testing.F) {
	const rows = 64
	img := pagesImage{
		baseLSN: 900, rows: rows, commits: 31, aborts: 4,
		committed: make([]int64, rows),
		att: map[int64][]inflightWrite{
			5: {{obj: 3, ok: true}, {obj: 9, ok: false}},
			8: {{obj: 0, ok: true}},
		},
	}
	img.committed[1], img.committed[63] = 4, -2
	valid := encodePages(img)
	seedFrames(f, valid, uint16(rows))
	// Oversized lengths behind valid CRCs: a meta page claiming 2^30 data
	// pages or 2^40 rows, and a data page claiming 65535 slots.
	for _, patch := range []struct{ off, width int }{{44, 4}, {20, 8}, {pageSize + 8, 2}} {
		p := bytes.Clone(valid)
		for i := range patch.width {
			p[patch.off+i] = 0xff
		}
		p[patch.off+patch.width-1] = 0x3f
		f.Add(p, uint16(rows), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, rows uint16, reseal bool) {
		if reseal {
			resealFrames(data, pageSize)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := decodePages(data, int64(rows))
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, 8*uint64(rows)+32*uint64(len(data))+1<<16; alloc > bound {
			t.Fatalf("decoding %d bytes for %d rows allocated %d bytes (bound %d)", len(data), rows, alloc, bound)
		}
		if err != nil {
			return
		}
		again, err := decodePages(encodePages(got), int64(rows))
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("parse(encode(x)) != x: %v\n%+v\n%+v", err, got, again)
		}
	})
}
