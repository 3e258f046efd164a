package netproto

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/request"
)

// Binary framing of the multiplexed protocol. A frame is
//
//	len   uint32 (big endian)  length of everything after this field
//	type  byte
//	crc   uint32               IEEE CRC-32 of the payload
//	body  [len-5]byte
//
// The length field of any legal frame (maxFrame = 1 MiB) starts with a zero
// byte, while every command of the line protocol starts with an ASCII
// letter — so one listening port serves both: the server peeks one byte and
// dispatches. The CRC turns torn or corrupted frames (the chaos proxy
// injects both) into detected connection errors instead of silently
// misrouted responses.
//
// Frame bodies (all integers big endian):
//
//	frameReq    corr u64 | ta i64 | intra i64 | op byte | object i64 | prio i64
//	frameBatch  count u32 | count × frameReq body
//	frameResp   corr u64 | status byte | value i64 | retryAfterMs u32 |
//	            msgLen u16 | msg
//	framePing   corr u64
//	framePong   corr u64
//	frameStats  corr u64
//	frameStatsR corr u64 | text
//	frameGoaway (empty) — server is draining: finish in-flight work
//	            elsewhere, submit nothing new here
const (
	frameReq byte = iota + 1
	frameBatch
	frameResp
	framePing
	framePong
	frameStats
	frameStatsR
	frameGoaway
)

// Response statuses.
const (
	statusOK byte = iota
	statusAborted
	statusBusy
	statusErr
	statusShutdown
)

const (
	maxFrame = 1 << 20
	reqBody  = 8 + 8 + 8 + 1 + 8 + 8
	// frameChunk is what readFrame allocates on the strength of a length
	// field alone; beyond it the buffer grows only as bytes arrive.
	frameChunk = 4 << 10
)

var crcTable = crc32.IEEETable

// appendFrame wraps typ+body into a frame appended to dst.
func appendFrame(dst []byte, typ byte, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+4+len(body)))
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(body, crcTable))
	return append(dst, body...)
}

// readFrame reads one frame, verifying length bounds and the payload CRC.
func readFrame(r io.Reader) (typ byte, body []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 5 || n > maxFrame {
		return 0, nil, fmt.Errorf("netproto: bad frame length %d", n)
	}
	// The length is the peer's claim: a connection that announces a megabyte
	// and sends nothing must not cost a megabyte. Every frame the protocol
	// itself sends fits the first chunk, so the hot path is one allocation and
	// one read, as before.
	buf := make([]byte, min(n, frameChunk))
	for have := 0; ; {
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return 0, nil, fmt.Errorf("netproto: short frame: %w", err)
		}
		if have = len(buf); uint32(have) == n {
			break
		}
		buf = append(buf, make([]byte, min(int(n)-have, have))...)
	}
	typ = buf[0]
	want := binary.BigEndian.Uint32(buf[1:5])
	body = buf[5:]
	if got := crc32.Checksum(body, crcTable); got != want {
		return 0, nil, fmt.Errorf("netproto: frame CRC mismatch (type %d, %d bytes)", typ, len(body))
	}
	return typ, body, nil
}

// appendReqBody serializes one request with its correlation ID.
func appendReqBody(dst []byte, corr uint64, r request.Request) []byte {
	dst = binary.BigEndian.AppendUint64(dst, corr)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.TA))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.IntraTA))
	dst = append(dst, byte(r.Op))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Object))
	return binary.BigEndian.AppendUint64(dst, uint64(r.Priority))
}

func decodeReqBody(b []byte) (corr uint64, r request.Request, err error) {
	if len(b) != reqBody {
		return 0, r, fmt.Errorf("netproto: request body is %d bytes, want %d", len(b), reqBody)
	}
	corr = binary.BigEndian.Uint64(b)
	r.TA = int64(binary.BigEndian.Uint64(b[8:]))
	r.IntraTA = int64(binary.BigEndian.Uint64(b[16:]))
	r.Op = request.Op(b[24])
	r.Object = int64(binary.BigEndian.Uint64(b[25:]))
	r.Priority = int64(binary.BigEndian.Uint64(b[33:]))
	if !r.Op.Valid() {
		return 0, r, fmt.Errorf("netproto: invalid op %q", r.Op)
	}
	return corr, r, nil
}

// response is one decoded frameResp.
type response struct {
	corr         uint64
	status       byte
	value        int64
	retryAfterMs uint32
	msg          string
}

func appendRespBody(dst []byte, rs response) []byte {
	dst = binary.BigEndian.AppendUint64(dst, rs.corr)
	dst = append(dst, rs.status)
	dst = binary.BigEndian.AppendUint64(dst, uint64(rs.value))
	dst = binary.BigEndian.AppendUint32(dst, rs.retryAfterMs)
	msg := rs.msg
	if len(msg) > 1<<15 {
		msg = msg[:1<<15]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

func decodeRespBody(b []byte) (response, error) {
	var rs response
	if len(b) < 8+1+8+4+2 {
		return rs, fmt.Errorf("netproto: response body is %d bytes", len(b))
	}
	rs.corr = binary.BigEndian.Uint64(b)
	rs.status = b[8]
	rs.value = int64(binary.BigEndian.Uint64(b[9:]))
	rs.retryAfterMs = binary.BigEndian.Uint32(b[17:])
	n := int(binary.BigEndian.Uint16(b[21:]))
	if len(b) != 23+n {
		return rs, fmt.Errorf("netproto: response message length %d does not fit body", n)
	}
	rs.msg = string(b[23:])
	return rs, nil
}

// encodeResp builds a complete response frame.
func encodeResp(rs response) []byte {
	return appendFrame(nil, frameResp, appendRespBody(nil, rs))
}

// encodeCorrFrame builds a frame whose body is just a correlation ID
// (ping/pong/stats request).
func encodeCorrFrame(typ byte, corr uint64) []byte {
	var body [8]byte
	binary.BigEndian.PutUint64(body[:], corr)
	return appendFrame(nil, typ, body[:])
}
