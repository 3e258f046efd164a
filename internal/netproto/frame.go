package netproto

import (
	"bufio"
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
	frameHdr = 4 + 1 + 4 // length, type, CRC
	reqBody  = 8 + 8 + 8 + 1 + 8 + 8
	respBody = 8 + 1 + 8 + 4 + 2 // without the message
	maxMsg   = 1 << 15
	// frameChunk is the size of each connection's read buffer, which holds
	// every frame the protocol sends in the steady state, and what a larger
	// frame allocates on the strength of its length field alone; beyond it
	// that frame's buffer grows only as bytes arrive.
	frameChunk = 4 << 10
)

var crcTable = crc32.IEEETable

// startFrame appends a frame header whose length and CRC endFrame fills in
// once the body behind it is appended, so a frame is encoded in place,
// straight into whatever buffer dst is (a connection's bufio.Writer).
func startFrame(dst []byte, typ byte) []byte {
	return append(dst, 0, 0, 0, 0, typ, 0, 0, 0, 0)
}

// endFrame completes the frame that starts at dst[at].
func endFrame(dst []byte, at int) []byte {
	body := dst[at+frameHdr:]
	binary.BigEndian.PutUint32(dst[at:], uint32(1+4+len(body)))
	binary.BigEndian.PutUint32(dst[at+5:], crc32.Checksum(body, crcTable))
	return dst
}

// appendReqFrame appends the frame of one request with its correlation ID.
func appendReqFrame(dst []byte, corr uint64, r request.Request) []byte {
	at := len(dst)
	return endFrame(appendReqBody(startFrame(dst, frameReq), corr, r), at)
}

// appendCorrFrame appends a frame whose body is just a correlation ID
// (ping/stats request).
func appendCorrFrame(dst []byte, typ byte, corr uint64) []byte {
	at := len(dst)
	return endFrame(binary.BigEndian.AppendUint64(startFrame(dst, typ), corr), at)
}

// frameReader reads the frames of one connection. A frame that fits the
// connection's bufio.Reader — every frame of the steady state — is checked
// and returned in place: its body is a view of that reader's buffer, valid
// until the next read, and every decoder copies what it keeps. So reading a
// frame allocates nothing, and the buffer a connection keeps is that one
// frameChunk. A larger frame (a big batch or stats reply) gets a buffer of
// its own, which nothing keeps after the call.
type frameReader struct {
	br   *bufio.Reader
	used int // bytes of the last frame still in br's buffer
}

// read reads one frame, verifying length bounds and the payload CRC.
func (fr *frameReader) read() (typ byte, body []byte, err error) {
	if fr.used > 0 {
		fr.br.Discard(fr.used) // cannot fail: the bytes are buffered
		fr.used = 0
	}
	hdr, err := fr.br.Peek(4)
	if err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < 5 || n > maxFrame {
		return 0, nil, fmt.Errorf("netproto: bad frame length %d", n)
	}
	var buf []byte
	if size := 4 + int(n); size <= fr.br.Size() {
		if buf, err = fr.br.Peek(size); err != nil {
			return 0, nil, fmt.Errorf("netproto: short frame: %w", err)
		}
		fr.used = size
		buf = buf[4:]
	} else {
		fr.br.Discard(4)
		if buf, err = readLarge(fr.br, int(n)); err != nil {
			return 0, nil, err
		}
	}
	typ = buf[0]
	want := binary.BigEndian.Uint32(buf[1:5])
	body = buf[5:]
	if got := crc32.Checksum(body, crcTable); got != want {
		return 0, nil, fmt.Errorf("netproto: frame CRC mismatch (type %d, %d bytes)", typ, len(body))
	}
	return typ, body, nil
}

// readLarge reads n bytes into a buffer of their own. The length is the
// peer's claim: a connection that announces a megabyte and sends nothing
// must not cost a megabyte, so the buffer starts at frameChunk and doubles
// only as bytes arrive.
func readLarge(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, frameChunk))
	for have := 0; ; {
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			return nil, fmt.Errorf("netproto: short frame: %w", err)
		}
		if have = len(buf); have == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-have, have))...)
	}
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

// response is one reply: a decoded frameResp on the client, and on the
// server the fixed-size value its connection's writer queues and encodes.
// ctrl is 0 for a frameResp, else framePong, frameStatsR (msg carries the
// stats text) or frameGoaway.
type response struct {
	corr         uint64
	value        int64
	msg          string
	retryAfterMs uint32
	status       byte
	ctrl         byte
}

// appendReply appends the frame of one reply.
func appendReply(dst []byte, rs response) []byte {
	at := len(dst)
	switch rs.ctrl {
	case 0:
		dst = appendRespBody(startFrame(dst, frameResp), rs)
	case frameGoaway:
		dst = startFrame(dst, frameGoaway)
	default: // framePong, frameStatsR
		dst = binary.BigEndian.AppendUint64(startFrame(dst, rs.ctrl), rs.corr)
		dst = append(dst, rs.msg...)
	}
	return endFrame(dst, at)
}

func appendRespBody(dst []byte, rs response) []byte {
	dst = binary.BigEndian.AppendUint64(dst, rs.corr)
	dst = append(dst, rs.status)
	dst = binary.BigEndian.AppendUint64(dst, uint64(rs.value))
	dst = binary.BigEndian.AppendUint32(dst, rs.retryAfterMs)
	msg := rs.msg
	if len(msg) > maxMsg {
		msg = msg[:maxMsg]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

func decodeRespBody(b []byte) (response, error) {
	var rs response
	if len(b) < respBody {
		return rs, fmt.Errorf("netproto: response body is %d bytes", len(b))
	}
	rs.corr = binary.BigEndian.Uint64(b)
	rs.status = b[8]
	rs.value = int64(binary.BigEndian.Uint64(b[9:]))
	rs.retryAfterMs = binary.BigEndian.Uint32(b[17:])
	n := int(binary.BigEndian.Uint16(b[21:]))
	if len(b) != respBody+n {
		return rs, fmt.Errorf("netproto: response message length %d does not fit body", n)
	}
	rs.msg = string(b[respBody:])
	return rs, nil
}
