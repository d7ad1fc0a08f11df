package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/durable/atomicfile"
)

// wal is the append-only update log. One file, one writer, records framed
// as u32 length + u32 CRC32C + payload. The tail is allowed to be torn —
// a crash mid-append leaves a partial frame or a frame whose checksum
// fails, and open truncates the file back to the last intact record. A
// checksum failure *before* the tail (a bit flip inside committed data)
// also stops recovery at that point: nothing after an unreadable record
// can be trusted, because replay order is the commit order.
type wal struct {
	path   string
	f      *os.File
	noSync bool
	size   int64
	// recs are the intact records parsed at open, kept until the engine
	// replays them (Replay frees them).
	recs []walRec
}

type walRec struct {
	lsn     uint64
	payload []byte
}

// openWAL opens or creates the log at path, scans it, truncates any torn
// tail, and returns the writer positioned at the end.
func openWAL(path string, noSync bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: wal: %w", err)
	}
	w := &wal{path: path, f: f, noSync: noSync}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: wal: %w", err)
	}
	if len(data) < len(walMagic) {
		// Fresh file, or a creation torn before the magic landed: start over.
		if err := w.reset(); err != nil {
			f.Close()
			return nil, err
		}
		return w, nil
	}
	if string(data[:len(walMagic)]) != walMagic {
		f.Close()
		return nil, fmt.Errorf("durable: %s is not a WAL (bad magic)", path)
	}
	recs, good, err := scanWAL(data)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.recs = recs
	if good < int64(len(data)) {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: wal: %w", err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: wal: %w", err)
	}
	w.size = good
	return w, nil
}

// scanWAL walks the framed records after the magic, returning the intact
// prefix: the parsed records and the byte offset the file should be
// truncated to. A torn or checksum-failed frame ends the scan silently (it
// is the uncommitted tail); a frame whose checksum passes but whose body is
// structurally invalid, or whose LSN does not increase, is a hard error —
// those bytes were durable once, so the log is corrupt, not torn.
func scanWAL(data []byte) ([]walRec, int64, error) {
	var recs []walRec
	off := len(walMagic)
	var prevLSN uint64
	for {
		if len(data)-off < 8 {
			break // torn frame header
		}
		ln := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if int64(ln) > maxRecordBytes || int(ln) > len(data)-off-8 {
			break // length prefix torn or beyond the file
		}
		payload := data[off+8 : off+8+int(ln)]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // torn or flipped record: stop here
		}
		if len(payload) < 8 {
			return nil, 0, fmt.Errorf("durable: wal record at offset %d passes its checksum but is too short for an LSN", off)
		}
		lsn := binary.LittleEndian.Uint64(payload)
		if lsn <= prevLSN {
			return nil, 0, fmt.Errorf("durable: wal LSN went backwards at offset %d (%d after %d)", off, lsn, prevLSN)
		}
		prevLSN = lsn
		recs = append(recs, walRec{lsn: lsn, payload: payload})
		off += 8 + int(ln)
	}
	return recs, int64(off), nil
}

// reset truncates the log to an empty file holding only the magic. Called
// at creation and after a snapshot makes every logged record redundant.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: wal: %w", err)
	}
	if _, err := w.f.WriteAt([]byte(walMagic), 0); err != nil {
		return fmt.Errorf("durable: wal: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: wal: %w", err)
	}
	if _, err := w.f.Seek(int64(len(walMagic)), 0); err != nil {
		return fmt.Errorf("durable: wal: %w", err)
	}
	if err := atomicfile.SyncDir(filepath.Dir(w.path)); err != nil {
		return err
	}
	w.size = int64(len(walMagic))
	w.recs = nil
	return nil
}

// append writes one record frame (encodeRecordFrame) as it is, then syncs
// it to disk (unless noSync). The frame is written in a single Write call,
// so a crash leaves either nothing, a torn frame (truncated at next open),
// or the whole record.
func (w *wal) append(frame []byte) error {
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("durable: wal append: %w", err)
	}
	if !w.noSync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("durable: wal sync: %w", err)
		}
	}
	w.size += int64(len(frame))
	return nil
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
