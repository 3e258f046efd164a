package netproto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/request"
)

// The bytes a remote peer controls reach three decoders: readFrame and
// decodeReqBody on the multiplexed dialect, parseReq on the line dialect.
// None may panic, none may allocate on the strength of a length the peer only
// claims, and each inverts its encoder.

var fuzzReq = request.Request{TA: 7, IntraTA: 3, Op: request.Write, Object: 42, Priority: -2}

// frameSeeds are well-formed frames of every type a client sends, and the
// malformations the chaos proxy produces plus the ones it cannot.
func frameSeeds() [][]byte {
	req := appendFrame(nil, frameReq, appendReqBody(nil, 9, fuzzReq))
	batch := binary.BigEndian.AppendUint32(nil, 2)
	batch = appendReqBody(appendReqBody(batch, 1, fuzzReq), 2, request.Request{TA: 8, Op: request.Commit, Object: request.NoObject})
	badCRC := bytes.Clone(req)
	badCRC[len(badCRC)-1] ^= 0xff
	claimed := binary.BigEndian.AppendUint32(nil, maxFrame) // a megabyte announced, nothing sent
	return [][]byte{
		req,
		appendFrame(nil, frameBatch, batch),
		encodeCorrFrame(framePing, 5),
		encodeCorrFrame(frameStats, 6),
		encodeResp(response{corr: 4, status: statusBusy, retryAfterMs: 5, msg: "busy"}),
		req[:len(req)-7], // torn
		badCRC,
		claimed,
		append(bytes.Clone(claimed), req...),
		binary.BigEndian.AppendUint32(nil, maxFrame+1), // oversized
		binary.BigEndian.AppendUint32(nil, 4),          // shorter than type+crc
		{},
	}
}

func FuzzReadFrame(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		typ, body, err := readFrame(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		// Twice what arrived plus the first chunk is readFrame's own bound;
		// the slack covers whatever else the test process allocates meanwhile
		// and still sits far below the megabyte a peer may claim.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(in)+frameChunk+64<<10); got > limit {
			t.Fatalf("readFrame allocated %d bytes for %d bytes of input (limit %d)", got, len(in), limit)
		}
		if err != nil {
			return
		}
		// What readFrame accepts is exactly what appendFrame writes.
		if enc := appendFrame(nil, typ, body); !bytes.Equal(enc, in[:len(enc)]) {
			t.Fatalf("accepted frame does not re-encode to its input: type %d, %d-byte body", typ, len(body))
		}
	})
}

func FuzzDecodeReqBody(f *testing.F) {
	f.Add(appendReqBody(nil, 9, fuzzReq))
	f.Add(appendReqBody(nil, 1<<63, request.Request{TA: -1, IntraTA: -1, Op: request.Abort, Object: request.NoObject}))
	f.Add(appendReqBody(nil, 0, request.Request{Op: 'x'})) // invalid op
	f.Add(appendReqBody(nil, 9, fuzzReq)[:reqBody-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		corr, r, err := decodeReqBody(in)
		if err != nil {
			return
		}
		if !r.Op.Valid() {
			t.Fatalf("decoded invalid op %q", r.Op)
		}
		if enc := appendReqBody(nil, corr, r); !bytes.Equal(enc, in) {
			t.Fatalf("decode(%x) = %d, %+v re-encodes to %x", in, corr, r, enc)
		}
	})
}

func FuzzParseReq(f *testing.F) {
	for _, s := range []string{
		"REQ 7 0 w 5", "REQ 7 1 c -1", "REQ 7 1 r 5 3", "REQ -9223372036854775808 0 a -1 -1",
		"REQ 7 0 w", "REQ 7 0 w 5 3 9", "REQ x 0 w 5", "REQ 7 0 write 5", "REQ 7 0 w 99999999999999999999",
		"REQ", "", "REQ \x00 0 w 5", "REQ 7\t0\tw\t5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		r, err := parseReq(line)
		if err != nil {
			return
		}
		if !r.Op.Valid() {
			t.Fatalf("parseReq(%q) yields invalid op %q", line, r.Op)
		}
		// The line encoding of what was parsed parses to the same request.
		enc := formatReq(r)
		if back, err := parseReq(enc); err != nil || !back.Equal(r) {
			t.Fatalf("parseReq(%q) = %+v; its encoding %q parses to %+v, %v", line, r, enc, back, err)
		}
	})
}

// formatReq is the reference encoder of the line dialect's REQ command, the
// inverse FuzzParseReq holds parseReq to.
func formatReq(r request.Request) string {
	line := fmt.Sprintf("REQ %d %d %s %d", r.TA, r.IntraTA, r.Op, r.Object)
	if r.Priority != 0 {
		line += " " + strconv.FormatInt(r.Priority, 10)
	}
	return line
}
