package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/storage"
)

func tuples(vals ...string) []storage.Tuple {
	out := make([]storage.Tuple, len(vals))
	for i, v := range vals {
		out[i] = storage.Tuple(strings.Split(v, ","))
	}
	return out
}

func batch(pred string, vals ...string) map[string][]storage.Tuple {
	return map[string][]storage.Tuple{pred: tuples(vals...)}
}

func testDB(t *testing.T) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	for _, f := range tuples("a,1", "b,2", "c,3") {
		if err := db.Insert("r", f); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range tuples("1,x", "2,y") {
		if err := db.Insert("s", f); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range tuples("a,x", "b,y") {
		if err := db.Insert("v", f); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func testMeta() SnapshotMeta {
	return SnapshotMeta{
		ViewsFingerprint: "fp-1",
		Extents:          map[string]bool{"v": true},
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if s.Manifest() != nil {
		t.Fatal("fresh store claims a snapshot")
	}
	db := testDB(t)
	if err := s.WriteSnapshot(db, testMeta()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	man := s2.Manifest()
	if man == nil {
		t.Fatal("no manifest after reopen")
	}
	if man.ViewsFingerprint != "fp-1" || man.Layout != LayoutFull || man.LSN != 0 {
		t.Fatalf("manifest = %+v", man)
	}
	var vMeta *RelationMeta
	for i := range man.Relations {
		if man.Relations[i].Name == "v" {
			vMeta = &man.Relations[i]
		}
	}
	if vMeta == nil || !vMeta.Extent || vMeta.Rows != 2 || vMeta.Arity != 2 {
		t.Fatalf("extent meta = %+v", vMeta)
	}
	loaded, err := s2.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(loaded) {
		t.Fatalf("snapshot round trip lost data:\nwant %s\ngot  %s", db.Summary(), loaded.Summary())
	}
}

func TestSnapshotSupersedesAndSweeps(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	db := testDB(t)
	if err := s.WriteSnapshot(db, testMeta()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("r", storage.Tuple{"d", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(db, testMeta()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, e := range entries {
		if e.IsDir() {
			snaps = append(snaps, e.Name())
		}
	}
	if len(snaps) != 1 || snaps[0] != "snap-00000002" {
		t.Fatalf("snapshot dirs after second checkpoint: %v", snaps)
	}
	// A leftover temp dir and a stale snapshot dir are swept at open.
	if err := os.Mkdir(filepath.Join(dir, "snap-00000009.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "snap-00000001"), 0o755); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, dir)
	defer s2.Close()
	for _, stale := range []string{"snap-00000009.tmp", "snap-00000001"} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Fatalf("%s not swept at open", stale)
		}
	}
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	if lsn, err := s.Append(nil, batch("r", "d,4", "e,5")); err != nil || lsn != 1 {
		t.Fatalf("append: lsn=%d err=%v", lsn, err)
	}
	if lsn, err := s.Append(batch("r", "a,1"), batch("s", "3,z")); err != nil || lsn != 2 {
		t.Fatalf("append: lsn=%d err=%v", lsn, err)
	}
	if s.Stats().LSN != 2 {
		t.Fatalf("LSN = %d", s.Stats().LSN)
	}
	s.Close() // no checkpoint: simulates a crash with a populated log

	s2 := openStore(t, dir)
	defer s2.Close()
	if n := s2.PendingRecords(); n != 2 {
		t.Fatalf("pending records = %d", n)
	}
	if s2.Stats().LSN != 2 {
		t.Fatalf("LSN after reopen = %d", s2.Stats().LSN)
	}
	var got []Record
	n, err := s2.Replay(func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	if got[0].LSN != 1 || len(got[0].Inserts["r"]) != 2 || got[0].Deletes != nil {
		t.Fatalf("record 0 = %+v", got[0])
	}
	if got[1].LSN != 2 || len(got[1].Deletes["r"]) != 1 || len(got[1].Inserts["s"]) != 1 {
		t.Fatalf("record 1 = %+v", got[1])
	}
	if got[1].Inserts["s"][0][1] != "z" {
		t.Fatalf("tuple payload = %v", got[1].Inserts["s"])
	}
	// A checkpoint truncates the log.
	if err := s2.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	if s2.Dirty() {
		t.Fatal("store dirty right after checkpoint")
	}
	if b := s2.WALBytes(); b != int64(len(walMagic)) {
		t.Fatalf("wal bytes after checkpoint = %d", b)
	}
}

// TestTornTailTruncated covers the crash-mid-append corpus: the log ends in
// a partial frame, which recovery silently drops and truncates away.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append(nil, batch("r", "x,1")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 3, 7, 11} { // inside the last frame, the header, the LSN...
		torn := data[:len(data)-cut]
		if err := os.WriteFile(walPath, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir)
		n, err := s2.Replay(func(Record) error { return nil })
		if err != nil || n != 2 {
			t.Fatalf("cut %d: replayed n=%d err=%v, want the 2 intact records", cut, n, err)
		}
		if s2.Stats().LSN != 2 {
			t.Fatalf("cut %d: LSN = %d", cut, s2.Stats().LSN)
		}
		s2.Close()
		after, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) >= len(torn) {
			t.Fatalf("cut %d: torn tail not truncated (%d >= %d)", cut, len(after), len(torn))
		}
		if err := os.WriteFile(walPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBitFlippedRecordStopsReplay covers the corruption corpus: a flipped
// bit inside a committed record fails its CRC, and recovery refuses to
// replay past it — later records are unreachable because replay order is
// commit order.
func TestBitFlippedRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i := 0; i < 3; i++ {
		if _, err := s.Append(nil, batch("r", "x,1")); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, s.WALBytes())
	}
	s.Close()
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit in the middle record (frames start at sizes[0]).
	flipped := append([]byte(nil), data...)
	flipped[sizes[0]+8+4] ^= 0x40
	if err := os.WriteFile(walPath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	defer s2.Close()
	n, err := s2.Replay(func(Record) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("replay past a flipped record: n=%d err=%v, want exactly the first record", n, err)
	}
}

// TestTornHeaderAndFreshFiles covers log files shorter than the magic and
// a log that is not a log at all.
func TestTornHeaderAndFreshFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), []byte("AQV"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("torn header should reset the log: %v", err)
	}
	s.Close()

	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, walFile), []byte("NOTALOG!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir2, Options{}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBitFlippedSegmentRefusesLoad(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	man := s.Manifest()
	seg := filepath.Join(dir, "snap-00000001", man.Relations[0].File)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSnapshot(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped segment loaded: err=%v", err)
	}
}

func TestCorruptManifestRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	manPath := filepath.Join(dir, "snap-00000001", manifestFile)
	if err := os.WriteFile(manPath, []byte(`{"format": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("future-format manifest accepted")
	}
}

func TestWALWithoutSnapshotRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(nil, batch("r", "x,1")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Deleting the snapshot out from under a populated log must refuse to
	// open (replaying onto an unknown base would fabricate state).
	if err := os.Remove(filepath.Join(dir, currentFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("orphaned log accepted")
	}
}

func TestRecoverBaseFacts(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(batch("r", "a,1"), batch("r", "d,4")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, dir)
	defer s2.Close()
	db, err := s2.RecoverBaseFacts()
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("v") != nil {
		t.Fatal("stale extent leaked into recovered base facts")
	}
	r := db.Relation("r")
	if r == nil || r.Len() != 3 {
		t.Fatalf("recovered r = %v", db.Summary())
	}
	if r.Contains(storage.Tuple{"a", "1"}) {
		t.Fatal("logged delete not applied to recovered base")
	}
	if !r.Contains(storage.Tuple{"d", "4"}) {
		t.Fatal("logged insert not applied to recovered base")
	}
}

func TestFailStopWedgesWrites(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	// Force an append failure by closing the log file underneath the
	// store — the same observable outcome as a disk error.
	s.mu.Lock()
	s.wal.f.Close()
	s.mu.Unlock()
	if _, err := s.Append(nil, batch("r", "x,1")); err == nil {
		t.Fatal("append on a closed file succeeded")
	}
	if s.Err() == nil {
		t.Fatal("store not wedged after append failure")
	}
	if !s.Stats().Failed {
		t.Fatal("stats do not report the wedge")
	}
	if _, err := s.Append(nil, batch("r", "y,2")); err == nil {
		t.Fatal("append allowed after wedge")
	}
	if err := s.WriteSnapshot(testDB(t), testMeta()); err == nil {
		t.Fatal("snapshot allowed after wedge")
	}
}

func TestClosedStoreRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close not idempotent")
	}
	if _, err := s.Append(nil, batch("r", "x,1")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := s.WriteSnapshot(testDB(t), testMeta()); err == nil {
		t.Fatal("snapshot after close succeeded")
	}
}

func TestNoSyncRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(nil, batch("r", "d,4")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openStore(t, dir)
	defer s2.Close()
	if n := s2.PendingRecords(); n != 1 {
		t.Fatalf("pending = %d", n)
	}
}

func TestStatsCounters(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(nil, batch("r", "d,4")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Snapshots != 1 || st.WALAppends != 1 || st.LSN != 1 || st.SnapshotLSN != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SnapshotBytes <= 0 || st.WALBytes <= int64(len(walMagic)) {
		t.Fatalf("sizes not tracked: %+v", st)
	}
}

// TestCheckpointAfterFailedPublish: a checkpoint whose directory is
// renamed into place but whose CURRENT flip fails has taken its directory
// name; later checkpoints must pick the next names instead of colliding
// with it, and a reopen must load the newest snapshot.
func TestCheckpointAfterFailedPublish(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	db := testDB(t)
	if err := s.WriteSnapshot(db, testMeta()); err != nil {
		t.Fatal(err)
	}
	// Stand a non-empty directory where CURRENT is, so the atomic rename
	// of the new pointer over it fails after the snapshot directory has
	// been renamed into place.
	cur := filepath.Join(dir, currentFile)
	saved := filepath.Join(dir, "CURRENT.saved")
	if err := os.Rename(cur, saved); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(cur, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(nil, batch("r", "d,4")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(db, testMeta()); err == nil {
		t.Fatal("checkpoint published over a directory named CURRENT")
	}
	if err := os.RemoveAll(cur); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(saved, cur); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f := storage.Tuple{"e", strconv.Itoa(i)}
		if _, err := s.Append(nil, map[string][]storage.Tuple{"r": {f}}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("r", f); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot(db, testMeta()); err != nil {
			t.Fatalf("checkpoint %d after the failed publish: %v", i+1, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	if man := s2.Manifest(); man == nil || man.LSN != 4 {
		t.Fatalf("reopened manifest = %+v, want the snapshot at LSN 4", man)
	}
	if n := s2.PendingRecords(); n != 0 {
		t.Fatalf("%d records pending past the newest snapshot", n)
	}
	loaded, err := s2.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(loaded) {
		t.Fatalf("newest snapshot lost data:\nwant %s\ngot  %s", db.Summary(), loaded.Summary())
	}
}

// TestFailedSnapshotKeepsPreviousAndWAL: a checkpoint that fails before it
// is published leaves the previous snapshot and every logged batch
// authoritative.
func TestFailedSnapshotKeepsPreviousAndWAL(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.WriteSnapshot(testDB(t), testMeta()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(batch("r", "a,1"), batch("r", "d,4")); err != nil {
		t.Fatal(err)
	}
	// A foreign, non-empty directory squatting on the next snapshot's
	// name makes the rename into place fail.
	if err := os.MkdirAll(filepath.Join(dir, "snap-00000002", "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(testDB(t), testMeta()); err == nil {
		t.Fatal("checkpoint renamed over a non-empty directory")
	}
	if st := s.Stats(); st.Failed || st.SnapshotLSN != 0 || st.WALBytes <= int64(len(walMagic)) {
		t.Fatalf("stats after a failed checkpoint = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	if man := s2.Manifest(); man == nil || man.LSN != 0 {
		t.Fatalf("reopened manifest = %+v, want the first snapshot", man)
	}
	if n := s2.PendingRecords(); n != 1 {
		t.Fatalf("pending records = %d, want the logged batch", n)
	}
	db, err := s2.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(testDB(t)) {
		t.Fatalf("previous snapshot changed: %s", db.Summary())
	}
}

// TestWriteSnapshotAllocs pins the streaming property: a checkpoint of a
// 100 000-tuple relation (a 1.6 MB segment) allocates a bounded amount,
// not a copy of the segment.
func TestWriteSnapshotAllocs(t *testing.T) {
	const budget = 256 << 10
	db := storage.NewDatabase()
	rel, err := db.Ensure("r", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		rel.Insert(storage.Tuple{strconv.Itoa(i), strconv.Itoa(i % 977)})
	}
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.WriteSnapshot(db, SnapshotMeta{ViewsFingerprint: "fp"}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("WriteSnapshot allocated %d bytes", got)
	if got > budget {
		t.Fatalf("WriteSnapshot of %d tuples (%d bytes on disk) allocated %d bytes, budget %d", rel.Len(), s.Stats().SnapshotBytes, got, budget)
	}
}

// TestAppendAllocs: a batch is encoded once, into the store's kept frame
// buffer, which is written as it is, so an Append after one of a batch as
// large allocates nothing — no frame, no predicate list (it took 2
// allocations while every Append encoded into a frame of its own). A frame
// grown past maxKeptFrame is not kept.
func TestAppendAllocs(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var vals []string
	for i := 0; i < 64; i++ {
		vals = append(vals, fmt.Sprintf("k%d,%d", i, i*7))
	}
	ins := batch("r", vals...)
	got := testing.AllocsPerRun(100, func() {
		if _, err := s.Append(nil, ins); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Append: %.1f allocations", got)
	if got != 0 {
		t.Fatalf("Append of a 64-tuple batch after one as large: %.1f allocations, want 0", got)
	}
	for _, p := range s.enc.preds {
		if p != "" {
			t.Fatalf("the kept predicate scratch still names %q of the last batch", p)
		}
	}

	huge := storage.Tuple{strings.Repeat("x", maxKeptFrame), "1"}
	if _, err := s.Append(nil, map[string][]storage.Tuple{"r": {huge}}); err != nil {
		t.Fatal(err)
	}
	if s.enc.frame != nil {
		t.Fatalf("the store kept a %d-byte frame past the bound %d", cap(s.enc.frame), maxKeptFrame)
	}
	// Every frame, kept buffer or not, reached the log intact: the warm-up
	// Append, the 100 measured and the large one.
	data, err := os.ReadFile(filepath.Join(s.dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := scanWAL(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(recs), 102; got != want {
		t.Fatalf("reopened log holds %d intact records, want %d", got, want)
	}
}
