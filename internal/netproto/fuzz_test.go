package netproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/request"
)

// The bytes a remote peer controls reach three decoders: a connection's
// frameReader and decodeReqBody on the multiplexed dialect, parseReq on the
// line dialect. None may panic, none may allocate on the strength of a length
// the peer only claims, and each inverts its encoder.

var fuzzReq = request.Request{TA: 7, IntraTA: 3, Op: request.Write, Object: 42, Priority: -2}

// frameSeeds are well-formed frames of every type a client sends, and the
// malformations the chaos proxy produces plus the ones it cannot, alone and
// behind one another as a connection carries them.
func frameSeeds() [][]byte {
	req := appendReqFrame(nil, 9, fuzzReq)
	batch := binary.BigEndian.AppendUint32(nil, 2)
	batch = appendReqBody(appendReqBody(batch, 1, fuzzReq), 2, request.Request{TA: 8, Op: request.Commit, Object: request.NoObject})
	badCRC := bytes.Clone(req)
	badCRC[len(badCRC)-1] ^= 0xff
	claimed := binary.BigEndian.AppendUint32(nil, maxFrame) // a megabyte announced, nothing sent
	// Frames that just fill a connection's read buffer, and just do not.
	fits := appendFrame(nil, frameStatsR, make([]byte, frameChunk-frameHdr))
	spills := appendFrame(nil, frameStatsR, make([]byte, frameChunk-frameHdr+1))
	large := appendFrame(nil, frameStatsR, bytes.Repeat([]byte("stats "), 2*frameChunk/6))
	return [][]byte{
		req,
		appendFrame(nil, frameBatch, batch),
		appendCorrFrame(nil, framePing, 5),
		appendCorrFrame(nil, frameStats, 6),
		appendReply(nil, response{corr: 4, status: statusBusy, retryAfterMs: 5, msg: "busy"}),
		req[:len(req)-7], // torn
		badCRC,
		claimed,
		append(bytes.Clone(claimed), req...),
		binary.BigEndian.AppendUint32(nil, maxFrame+1), // oversized
		binary.BigEndian.AppendUint32(nil, 4),          // shorter than type+crc
		{},
		append(bytes.Clone(req), appendCorrFrame(nil, framePing, 5)...), // back to back
		append(bytes.Clone(large), req...),                              // a large frame, then a small one
		append(append(bytes.Clone(fits), spills...), req...),
		append(bytes.Clone(req), badCRC...),
	}
}

// appendFrame wraps typ+body into a frame appended to dst, the way every
// encoder of frame.go frames its body.
func appendFrame(dst []byte, typ byte, body []byte) []byte {
	at := len(dst)
	return endFrame(append(startFrame(dst, typ), body...), at)
}

// readFrameFresh is the reference reader: each frame in a buffer of its own,
// which nothing reuses. The connection's frameReader must read exactly what
// it reads.
func readFrameFresh(r io.Reader) (typ byte, body []byte, err error) {
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < 5 || n > maxFrame {
		return 0, nil, fmt.Errorf("bad frame length %d", n)
	}
	buf, err := readLarge(r, int(n))
	if err != nil {
		return 0, nil, err
	}
	if crc32.Checksum(buf[5:], crcTable) != binary.BigEndian.Uint32(buf[1:5]) {
		return 0, nil, fmt.Errorf("CRC mismatch")
	}
	return buf[0], buf[5:], nil
}

func FuzzReadFrame(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		ref := bytes.NewReader(in)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr := frameReader{br: bufio.NewReaderSize(bytes.NewReader(in), frameChunk)}
		runtime.ReadMemStats(&after)
		allocated := after.TotalAlloc - before.TotalAlloc
		for off := 0; ; {
			runtime.ReadMemStats(&before)
			typ, body, err := fr.read()
			runtime.ReadMemStats(&after)
			allocated += after.TotalAlloc - before.TotalAlloc
			// Twice what arrived plus the read buffer is the reader's own
			// bound; the slack covers whatever else the test process
			// allocates meanwhile and still sits far below the megabyte a
			// peer may claim.
			if limit := uint64(2*len(in) + frameChunk + 64<<10); allocated > limit {
				t.Fatalf("reading %d bytes of input allocated %d bytes (limit %d)", len(in), allocated, limit)
			}
			// The only buffer the reader keeps is its connection's bufio
			// buffer, whatever frame it just read.
			if n := fr.br.Size(); n > frameChunk {
				t.Fatalf("reader keeps a %d-byte buffer, want at most %d", n, frameChunk)
			}
			// A fresh-buffer read of the same frame, taken before the reader
			// reads the next one, which may overwrite this body.
			refTyp, refBody, refErr := readFrameFresh(ref)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("frame at %d: reader says %v, fresh read says %v", off, err, refErr)
			}
			if err != nil {
				return
			}
			if typ != refTyp || !bytes.Equal(body, refBody) {
				t.Fatalf("frame at %d: reader read type %d, %x; fresh read type %d, %x", off, typ, body, refTyp, refBody)
			}
			// What the reader accepts is exactly what appendFrame writes.
			enc := appendFrame(nil, typ, body)
			if !bytes.Equal(enc, in[off:off+len(enc)]) {
				t.Fatalf("frame at %d does not re-encode to its input: type %d, %d-byte body", off, typ, len(body))
			}
			off += len(enc)
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
