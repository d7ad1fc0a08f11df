package durable

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/durable/atomicfile"
	"repro/internal/storage"
)

// SnapshotMeta carries the engine-level context a snapshot must record
// alongside the raw tuples.
type SnapshotMeta struct {
	// ViewsFingerprint identifies the view definitions the extents were
	// materialized under (staleness detection at the next open).
	ViewsFingerprint string
	// Extents marks which relations are materialized view extents; the
	// rest are base relations.
	Extents map[string]bool
}

// WriteSnapshot checkpoints db — base relations and view extents alike —
// as a new snapshot at the store's current LSN, publishes it via the
// CURRENT pointer, removes the superseded snapshot, and truncates the WAL
// (every logged batch is now inside the snapshot). The caller must hold
// the same serialization that guards Append, so no batch can commit while
// the checkpoint is cut. Each segment is streamed to its file through one
// fixed buffer the whole checkpoint shares, so the memory a checkpoint
// allocates does not grow with the relations it writes.
//
// The write is crash-safe at every step: segments and the manifest land in
// a temporary directory that is fsynced and renamed into place, and the
// CURRENT pointer flips atomically. A failure leaves the previous snapshot
// (and the full WAL) authoritative; snapshot failure does not wedge the
// store, since the log still covers everything. A snapshot directory that
// was renamed into place but not published keeps its name until the next
// Open sweeps it, and later checkpoints take the names after it.
func (s *Store) WriteSnapshot(db *storage.Database, meta SnapshotMeta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if s.wal == nil {
		return fmt.Errorf("durable: store is closed")
	}
	start := time.Now()
	name := fmt.Sprintf("snap-%08d", s.seq+1)
	tmp := filepath.Join(s.dir, name+".tmp")
	if err := os.RemoveAll(tmp); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	man := &Manifest{
		Format:           manifestFormat,
		LSN:              s.lsn,
		CreatedUnixNs:    time.Now().UnixNano(),
		ViewsFingerprint: meta.ViewsFingerprint,
		Layout:           LayoutFull,
	}
	preds := db.Predicates()
	sort.Strings(preds)
	bw := bufio.NewWriterSize(nil, segBufSize)
	var total int64
	for i, pred := range preds {
		rel := db.Relation(pred)
		file := fmt.Sprintf("seg-%04d.col", i)
		var n int64
		var crc uint32
		err := writeFileSync(filepath.Join(tmp, file), s.opt.NoSync, func(w io.Writer) (err error) {
			n, crc, err = writeSegment(w, rel.Tuples(), rel.Arity(), bw)
			return err
		})
		if err != nil {
			os.RemoveAll(tmp)
			return err
		}
		man.Relations = append(man.Relations, RelationMeta{
			Name:   pred,
			Arity:  rel.Arity(),
			Rows:   rel.Len(),
			Extent: meta.Extents[pred],
			File:   file,
			Bytes:  n,
			CRC:    crc,
		})
		total += n
	}
	manData, err := encodeManifest(man)
	if err != nil {
		os.RemoveAll(tmp)
		return err
	}
	err = writeFileSync(filepath.Join(tmp, manifestFile), s.opt.NoSync, func(w io.Writer) error {
		_, err := w.Write(manData)
		return err
	})
	if err != nil {
		os.RemoveAll(tmp)
		return err
	}
	total += int64(len(manData))
	if !s.opt.NoSync {
		if err := atomicfile.SyncDir(tmp); err != nil {
			os.RemoveAll(tmp)
			return err
		}
	}
	final := filepath.Join(s.dir, name)
	if err := os.Rename(tmp, final); err != nil {
		os.RemoveAll(tmp)
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	// The name is taken on disk whether or not the directory is published
	// below, so the next checkpoint must not reuse it. The directory is
	// left in place on failure: CURRENT may already name it.
	s.seq++
	if !s.opt.NoSync {
		if err := atomicfile.SyncDir(s.dir); err != nil {
			return err
		}
	}
	if err := atomicfile.WriteFile(filepath.Join(s.dir, currentFile), []byte(name+"\n"), 0o644); err != nil {
		return err
	}
	// The snapshot is published. Everything from here is cleanup whose
	// failure the next Open repairs (superseded dirs are swept, log
	// records at or below the snapshot LSN are skipped).
	old := s.snapDir
	s.man, s.snapDir = man, name
	if old != "" {
		os.RemoveAll(filepath.Join(s.dir, old))
	}
	if err := s.wal.reset(); err != nil {
		s.failed = err
		return err
	}
	s.snapshots++
	s.snapshotTime += time.Since(start)
	s.snapshotBytes = total
	return nil
}

// LoadSnapshot reads the current snapshot back into a database: every
// segment is checksum-verified, decoded, and bulk-inserted. The relations
// adopt the tuples the decoder built rather than cloning them: nothing
// else holds them. Column hash indexes are rebuilt by the caller
// (BuildIndexes), not persisted — the rebuild is a linear scan, and
// re-deriving them keeps the on-disk format independent of the index
// representation. The planner's distinct counts are read off those
// indexes, so they are not persisted either.
func (s *Store) LoadSnapshot() (*storage.Database, error) {
	s.mu.Lock()
	man, snapDir := s.man, s.snapDir
	s.mu.Unlock()
	if man == nil {
		return nil, fmt.Errorf("durable: no snapshot to load")
	}
	db := storage.NewDatabase()
	for _, rm := range man.Relations {
		tuples, err := s.loadSegment(snapDir, rm)
		if err != nil {
			return nil, err
		}
		rel, err := db.Ensure(rm.Name, rm.Arity)
		if err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
		for _, t := range tuples {
			rel.Adopt(t)
		}
	}
	return db, nil
}

// loadSegment reads, verifies and decodes one relation segment.
func (s *Store) loadSegment(snapDir string, rm RelationMeta) ([]storage.Tuple, error) {
	path := filepath.Join(s.dir, snapDir, rm.File)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("durable: segment %s: %w", rm.Name, err)
	}
	if int64(len(data)) != rm.Bytes {
		return nil, fmt.Errorf("durable: segment %s: %d bytes on disk, manifest says %d", rm.Name, len(data), rm.Bytes)
	}
	if sum := crc32.Checksum(data, castagnoli); sum != rm.CRC {
		return nil, fmt.Errorf("durable: segment %s: file checksum mismatch (got %08x, want %08x)", rm.Name, sum, rm.CRC)
	}
	tuples, _, err := decodeSegment(data, rm.Arity, rm.Rows)
	if err != nil {
		return nil, fmt.Errorf("durable: segment %s: %w", rm.Name, err)
	}
	return tuples, nil
}

// writeFileSync creates a file inside a staging directory, fills it
// through write and (by default) fsyncs it. No rename is needed: the whole
// directory is renamed into place after every file in it is durable.
func writeFileSync(path string, noSync bool, write func(io.Writer) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("durable: snapshot: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	return nil
}
