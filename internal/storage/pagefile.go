// Checkpoint page file of the durable storage mode: a slotted-page image of
// the committed table plus the active-transaction table (ATT), written
// atomically (tmp + fsync + rename) so the on-disk pair (pages, journal) is
// consistent at every instant. A checkpoint at LSN b means: "pages holds
// the committed state produced by all records with LSN < b, plus the
// outstanding writes of transactions still active at b" — recovery loads it
// and replays only journal records with LSN >= b (the tail).
//
// Layout: fixed 4 KiB pages, each independently CRC32-framed.
//
//	page 0 (meta): [crc:4][magic:8][baseLSN:8][rows:8][commits:8][aborts:8]
//	               [dataPages:4][attPages:4]
//	data page:     [crc:4][page#:4][count:2][pad:6] + count × [row:8][val:8]
//	               (sparse: only non-zero committed rows are stored)
//	ATT page:      [crc:4][page#:4][count:2][pad:6] + count × [ta:8][obj:8]
//	               (one slot per outstanding write of an active TA; a write
//	               the server rejected is stored with obj bitwise-inverted —
//	               negative — so replay skips it but the commit gate's
//	               journaled-write count stays accountable)
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const (
	pagesMagic   = "DSPG0001"
	pageSize     = 4096
	pageHdrSize  = 16
	slotSize     = 16
	slotsPerPage = (pageSize - pageHdrSize) / slotSize
)

// inflightWrite is one outstanding (executed, unterminated) write: the
// object it hit, and whether the server actually applied it (ok=false for
// rejected statements, which journal recWriteFailed frames).
type inflightWrite struct {
	obj int64
	ok  bool
}

// pagesImage is the decoded content of a checkpoint file.
type pagesImage struct {
	baseLSN   int64
	rows      int64
	commits   int64
	aborts    int64
	committed []int64
	att       map[int64][]inflightWrite
}

func sealPage(p []byte, pageNo uint32, count uint16) {
	binary.LittleEndian.PutUint32(p[4:8], pageNo)
	binary.LittleEndian.PutUint16(p[8:10], count)
	binary.LittleEndian.PutUint32(p[0:4], crc32.ChecksumIEEE(p[4:pageSize]))
}

func checkPage(p []byte, pageNo uint32) (count int, err error) {
	if binary.LittleEndian.Uint32(p[0:4]) != crc32.ChecksumIEEE(p[4:pageSize]) {
		return 0, fmt.Errorf("storage: pages: CRC mismatch on page %d", pageNo)
	}
	if got := binary.LittleEndian.Uint32(p[4:8]); got != pageNo {
		return 0, fmt.Errorf("storage: pages: page %d stamped %d", pageNo, got)
	}
	return int(binary.LittleEndian.Uint16(p[8:10])), nil
}

// writePages writes a checkpoint image atomically and returns the bytes
// written.
func writePages(dir string, img pagesImage) (int64, error) {
	buf := encodePages(img)
	path := filepath.Join(dir, pagesFileName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(dir)
	return int64(len(buf)), nil
}

// encodePages renders a checkpoint image as the page file's bytes.
func encodePages(img pagesImage) []byte {
	// Gather the sparse committed entries and the flattened ATT.
	type slot struct{ a, b int64 }
	var data, att []slot
	for row, v := range img.committed {
		if v != 0 {
			data = append(data, slot{int64(row), v})
		}
	}
	for ta, ws := range img.att {
		for _, w := range ws {
			obj := w.obj
			if !w.ok {
				obj = ^obj
			}
			att = append(att, slot{ta, obj})
		}
	}
	nData := (len(data) + slotsPerPage - 1) / slotsPerPage
	nATT := (len(att) + slotsPerPage - 1) / slotsPerPage

	buf := make([]byte, (1+nData+nATT)*pageSize)
	meta := buf[:pageSize]
	copy(meta[4:12], pagesMagic)
	binary.LittleEndian.PutUint64(meta[12:20], uint64(img.baseLSN))
	binary.LittleEndian.PutUint64(meta[20:28], uint64(img.rows))
	binary.LittleEndian.PutUint64(meta[28:36], uint64(img.commits))
	binary.LittleEndian.PutUint64(meta[36:44], uint64(img.aborts))
	binary.LittleEndian.PutUint32(meta[44:48], uint32(nData))
	binary.LittleEndian.PutUint32(meta[48:52], uint32(nATT))
	binary.LittleEndian.PutUint32(meta[0:4], crc32.ChecksumIEEE(meta[4:pageSize]))

	fill := func(pageNo int, slots []slot) {
		p := buf[pageNo*pageSize : (pageNo+1)*pageSize]
		for i, s := range slots {
			off := pageHdrSize + i*slotSize
			binary.LittleEndian.PutUint64(p[off:off+8], uint64(s.a))
			binary.LittleEndian.PutUint64(p[off+8:off+16], uint64(s.b))
		}
		sealPage(p, uint32(pageNo), uint16(len(slots)))
	}
	page := 1
	for off := 0; off < len(data); off += slotsPerPage {
		fill(page, data[off:min(off+slotsPerPage, len(data))])
		page++
	}
	for off := 0; off < len(att); off += slotsPerPage {
		fill(page, att[off:min(off+slotsPerPage, len(att))])
		page++
	}
	return buf
}

// readPages loads the checkpoint image of a table of the given row count (the
// journal header's). A missing file returns os.ErrNotExist (a durable
// directory that never checkpointed).
func readPages(dir string, rows int64) (pagesImage, error) {
	data, err := os.ReadFile(filepath.Join(dir, pagesFileName))
	if err != nil {
		return pagesImage{}, err
	}
	return decodePages(data, rows)
}

// decodePages parses a page file of a table of the given row count. Every
// page is checked before it is read, and nothing is allocated by a size the
// file claims before that claim is checked: page counts against the file's
// length, slot counts against the page, and the row count against rows.
func decodePages(data []byte, rows int64) (pagesImage, error) {
	var img pagesImage
	if len(data) < pageSize || len(data)%pageSize != 0 {
		return img, fmt.Errorf("storage: pages: bad size %d", len(data))
	}
	meta := data[:pageSize]
	if binary.LittleEndian.Uint32(meta[0:4]) != crc32.ChecksumIEEE(meta[4:pageSize]) {
		return img, errors.New("storage: pages: meta page CRC mismatch")
	}
	if string(meta[4:12]) != pagesMagic {
		return img, fmt.Errorf("storage: pages: bad magic %q", meta[4:12])
	}
	img.baseLSN = int64(binary.LittleEndian.Uint64(meta[12:20]))
	img.rows = int64(binary.LittleEndian.Uint64(meta[20:28]))
	img.commits = int64(binary.LittleEndian.Uint64(meta[28:36]))
	img.aborts = int64(binary.LittleEndian.Uint64(meta[36:44]))
	nData := int(binary.LittleEndian.Uint32(meta[44:48]))
	nATT := int(binary.LittleEndian.Uint32(meta[48:52]))
	if img.rows != rows {
		return img, fmt.Errorf("storage: pages: %d rows, the journal's header %d", img.rows, rows)
	}
	if img.rows <= 0 || len(data) != (1+nData+nATT)*pageSize {
		return img, fmt.Errorf("storage: pages: inconsistent meta (rows=%d pages=%d have=%d)",
			img.rows, 1+nData+nATT, len(data)/pageSize)
	}
	img.committed = make([]int64, img.rows)
	img.att = make(map[int64][]inflightWrite)
	for pageNo := 1; pageNo < 1+nData+nATT; pageNo++ {
		p := data[pageNo*pageSize : (pageNo+1)*pageSize]
		count, err := checkPage(p, uint32(pageNo))
		if err != nil {
			return img, err
		}
		if count > slotsPerPage {
			return img, fmt.Errorf("storage: pages: page %d claims %d slots", pageNo, count)
		}
		for i := 0; i < count; i++ {
			off := pageHdrSize + i*slotSize
			a := int64(binary.LittleEndian.Uint64(p[off : off+8]))
			b := int64(binary.LittleEndian.Uint64(p[off+8 : off+16]))
			if pageNo <= nData {
				if a < 0 || a >= img.rows {
					return img, fmt.Errorf("storage: pages: row %d out of range", a)
				}
				img.committed[a] = b
			} else {
				w := inflightWrite{obj: b, ok: true}
				if b < 0 {
					w = inflightWrite{obj: ^b, ok: false}
				}
				img.att[a] = append(img.att[a], w)
			}
		}
	}
	return img, nil
}
