// Write-ahead journal of the durable storage mode: an append-only file of
// fixed-size redo records, each framed with an LSN and a CRC32 so recovery
// can tell a torn tail from good data without any out-of-band length
// information. The journal is redo-only in the ARIES "winners win" sense —
// recovery replays the writes of transactions whose commit record made it
// into the valid prefix and drops everything else — so undo records exist
// for audit, not for replay (a transaction with undo records is a victim
// and can never be a winner).
//
// Appends buffer in memory; Flush moves the buffer to the file and Sync
// additionally fsyncs — group commit amortizes syncs over SyncEvery
// commit-batch boundaries (see Server.EndBatch).
//
// Fault injection: a journal armed with crashAt > 0 dies when the logical
// append stream crosses that byte offset. The record crossing the boundary
// is written only up to the offset — a torn tail, exactly what a power cut
// mid-write leaves behind — the dead error becomes sticky, and every later
// operation fails. Tests crash a run at an arbitrary byte this way, then
// hand the directory to Recover.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/metrics"
)

const (
	journalFileName = "journal"
	pagesFileName   = "pages"

	// journalMagic identifies a journal file (and its format version).
	journalMagic = "DSJL0001"

	// recordSize is the fixed frame size of both the header and every
	// record: [crc:4][lsn:8][ta:8][obj:8][type:1][pad:3], CRC32 (IEEE) over
	// bytes 4..32. The header reuses the layout with the magic in the lsn/ta
	// slots: [crc:4][magic:8][baseLSN:8][rows:8][pad:4].
	recordSize = 32
)

// Journal record types.
const (
	recWrite       byte = 1 // executed write: +1 on the object when its TA wins
	recWriteFailed byte = 2 // write the server rejected: no table effect, but it
	// occupies one journaled-write slot so the commit gate's
	// count still matches the history store's
	recUndo   byte = 3 // compensation of a victim's write (audit only)
	recCommit byte = 4 // the TA is a winner: recovery replays its writes
	recAbort  byte = 5 // the TA is a loser: recovery drops it entirely
)

// errJournalDead is the sticky error of a journal killed by the fault-
// injection hook (or a real I/O failure).
var errJournalDead = errors.New("storage: journal dead (crashed or failed)")

// jrec is one decoded journal record.
type jrec struct {
	lsn, ta, obj int64
	typ          byte
}

// journal is the append side. It is not self-locking: the owning
// durableState serializes access under its mutex.
type journal struct {
	f   *os.File
	dir string
	buf []byte // appended, not yet written to f

	rows    int64
	nextLSN int64
	// appended counts logical bytes (headers + records, across rotations) —
	// the clock the crashAt failpoint compares against.
	appended int64
	crashAt  int64
	dead     error

	met *metrics.Durability
}

func putRecord(b []byte, r jrec) {
	binary.LittleEndian.PutUint64(b[4:12], uint64(r.lsn))
	binary.LittleEndian.PutUint64(b[12:20], uint64(r.ta))
	binary.LittleEndian.PutUint64(b[20:28], uint64(r.obj))
	b[28] = r.typ
	b[29], b[30], b[31] = 0, 0, 0
	binary.LittleEndian.PutUint32(b[0:4], crc32.ChecksumIEEE(b[4:recordSize]))
}

// parseRecord decodes one frame, reporting ok=false on a short frame or a CRC
// mismatch.
func parseRecord(b []byte) (jrec, bool) {
	if len(b) < recordSize || binary.LittleEndian.Uint32(b[0:4]) != crc32.ChecksumIEEE(b[4:recordSize]) {
		return jrec{}, false
	}
	return jrec{
		lsn: int64(binary.LittleEndian.Uint64(b[4:12])),
		ta:  int64(binary.LittleEndian.Uint64(b[12:20])),
		obj: int64(binary.LittleEndian.Uint64(b[20:28])),
		typ: b[28],
	}, true
}

func putJournalHeader(b []byte, baseLSN, rows int64) {
	copy(b[4:12], journalMagic)
	binary.LittleEndian.PutUint64(b[12:20], uint64(baseLSN))
	binary.LittleEndian.PutUint64(b[20:28], uint64(rows))
	b[28], b[29], b[30], b[31] = 0, 0, 0, 0
	binary.LittleEndian.PutUint32(b[0:4], crc32.ChecksumIEEE(b[4:recordSize]))
}

func parseJournalHeader(b []byte) (baseLSN, rows int64, err error) {
	if len(b) < recordSize {
		return 0, 0, fmt.Errorf("storage: journal shorter than its header (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:4]) != crc32.ChecksumIEEE(b[4:recordSize]) {
		return 0, 0, errors.New("storage: journal header CRC mismatch")
	}
	if string(b[4:12]) != journalMagic {
		return 0, 0, fmt.Errorf("storage: bad journal magic %q", b[4:12])
	}
	return int64(binary.LittleEndian.Uint64(b[12:20])), int64(binary.LittleEndian.Uint64(b[20:28])), nil
}

// createJournal writes a fresh journal file (header only, fsynced) and
// returns the open append handle. baseLSN is the LSN the next record gets.
func createJournal(dir string, baseLSN, rows int64, met *metrics.Durability) (*journal, error) {
	f, err := os.OpenFile(filepath.Join(dir, journalFileName), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [recordSize]byte
	putJournalHeader(hdr[:], baseLSN, rows)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	j := &journal{f: f, dir: dir, rows: rows, nextLSN: baseLSN, met: met}
	j.account(recordSize)
	return j, nil
}

func (j *journal) account(n int64) {
	j.appended += n
	if j.met != nil {
		j.met.BytesJournaled.Add(n)
	}
}

// append frames and buffers one record, honouring the failpoint. On a
// crash it flushes exactly the bytes below the boundary (the torn prefix a
// real crash would leave) and goes dead.
func (j *journal) append(typ byte, ta, obj int64) error {
	if j.dead != nil {
		return j.dead
	}
	// The record is framed in place, at the end of the buffer.
	at := len(j.buf)
	j.buf = append(j.buf, make([]byte, recordSize)...)
	putRecord(j.buf[at:], jrec{lsn: j.nextLSN, ta: ta, obj: obj, typ: typ})
	if j.crashAt > 0 && j.appended+recordSize > j.crashAt {
		keep := max(j.crashAt-j.appended, 0)
		j.buf = j.buf[:at+int(keep)]
		j.account(keep)
		j.flush() // best effort: the torn prefix reaches the file
		j.f.Sync()
		j.dead = errJournalDead
		return j.dead
	}
	j.nextLSN++
	j.account(recordSize)
	if j.met != nil {
		j.met.RecordsJournaled.Add(1)
	}
	return nil
}

// flush writes the buffer to the file (no fsync).
func (j *journal) flush() error {
	if j.dead != nil {
		return j.dead
	}
	if len(j.buf) == 0 {
		return nil
	}
	if _, err := j.f.Write(j.buf); err != nil {
		j.dead = err
		return err
	}
	j.buf = j.buf[:0]
	return nil
}

// sync flushes and fsyncs.
func (j *journal) sync() error {
	if err := j.flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.dead = err
		return err
	}
	if j.met != nil {
		j.met.Syncs.Add(1)
	}
	return nil
}

// rotate atomically replaces the journal with a fresh one whose header
// carries baseLSN — the checkpoint's tail-truncation step. The new file is
// written and fsynced under a temporary name first, so a crash at any point
// leaves either the old or the new journal intact.
func (j *journal) rotate(baseLSN int64) error {
	if j.dead != nil {
		return j.dead
	}
	path := filepath.Join(j.dir, journalFileName)
	tmp := path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		j.dead = err
		return err
	}
	var hdr [recordSize]byte
	putJournalHeader(hdr[:], baseLSN, j.rows)
	if _, err := nf.Write(hdr[:]); err == nil {
		err = nf.Sync()
	}
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		j.dead = err
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		nf.Close()
		os.Remove(tmp)
		j.dead = err
		return err
	}
	syncDir(j.dir)
	if j.f != nil {
		j.f.Close()
	}
	j.f = nf
	j.buf = j.buf[:0]
	j.nextLSN = baseLSN
	j.account(recordSize)
	return nil
}

func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// syncDir fsyncs a directory so a rename within it is durable. Best effort:
// some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// scanJournal reads and validates a journal file: header, then the longest
// valid record prefix (CRC-correct frames with monotonically increasing
// LSNs starting at the header's base). It returns the decoded prefix, the
// byte offset where validity ends (the truncation point for re-opening) and
// how many frames — complete or partial — were discarded as torn.
func scanJournal(path string) (baseLSN, rows int64, recs []jrec, validEnd int64, torn int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, 0, 0, err
	}
	baseLSN, rows, err = parseJournalHeader(data)
	if err != nil {
		return 0, 0, nil, 0, 0, err
	}
	validEnd = recordSize
	next := baseLSN
	for validEnd+recordSize <= int64(len(data)) {
		r, ok := parseRecord(data[validEnd : validEnd+recordSize])
		if !ok || r.lsn != next || r.typ < recWrite || r.typ > recAbort {
			break
		}
		recs = append(recs, r)
		validEnd += recordSize
		next++
	}
	if rest := int64(len(data)) - validEnd; rest > 0 {
		torn = (rest + recordSize - 1) / recordSize
	}
	return baseLSN, rows, recs, validEnd, torn, nil
}
