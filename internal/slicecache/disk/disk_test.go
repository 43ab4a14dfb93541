package disk

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"jumpslice/internal/obs"
	"jumpslice/internal/seglog"
)

// headerSize is the bytes before a record's data: the frame header
// and the key.
const headerSize = seglog.HeaderSize + keySize

// segPath is the path of the store's segment id.
func segPath(dir string, id int64) string { return seglog.Path(dir, id) }

func keyN(n int) Key {
	return Key(sha256.Sum256([]byte(fmt.Sprintf("key-%d", n))))
}

func payloadN(n, size int) []byte {
	b := bytes.Repeat([]byte{byte(n)}, size)
	copy(b, fmt.Sprintf("rec-%d:", n))
	return b
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestDiskRoundTripAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 20; i++ {
		if err := s.Put(keyN(i), payloadN(i, 100+i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	// Re-putting a present key is a no-op (demotions after
	// write-through).
	writes := s.Stats().Writes
	if err := s.Put(keyN(0), payloadN(0, 100)); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Writes != writes {
		t.Fatal("re-put of a present key wrote a record")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm restart: every record readable, byte-identical.
	s = mustOpen(t, Options{Dir: dir})
	defer s.Close()
	for i := 0; i < 20; i++ {
		data, ok := s.Get(keyN(i))
		if !ok || !bytes.Equal(data, payloadN(i, 100+i)) {
			t.Fatalf("record %d lost across restart (ok=%v)", i, ok)
		}
	}
	if _, ok := s.Get(keyN(999)); ok {
		t.Fatal("phantom record")
	}
	st := s.Stats()
	if st.Entries != 20 || st.Hits != 20 || st.Misses != 1 {
		t.Fatalf("stats after restart: %+v", st)
	}
}

// A crash mid-append leaves a torn record at the tail; reopening must
// truncate it away, keep every earlier record, and resume appending
// on a clean boundary.
func TestDiskTruncatedTailRecovery(t *testing.T) {
	for _, cut := range []int64{1, headerSize - 1, headerSize + 3} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, Options{Dir: dir})
			for i := 0; i < 5; i++ {
				if err := s.Put(keyN(i), payloadN(i, 64)); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()

			// Simulate the crash: append cut bytes of a record that never
			// finished.
			path := segPath(dir, 1)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(make([]byte, cut))
			f.Close()

			s = mustOpen(t, Options{Dir: dir})
			defer s.Close()
			if got := s.Stats().Truncated; got != 1 {
				t.Fatalf("Truncated = %d", got)
			}
			if fi2, _ := os.Stat(path); fi2.Size() != fi.Size() {
				t.Fatalf("tail not truncated back: %d vs %d", fi2.Size(), fi.Size())
			}
			for i := 0; i < 5; i++ {
				if data, ok := s.Get(keyN(i)); !ok || !bytes.Equal(data, payloadN(i, 64)) {
					t.Fatalf("record %d lost to tail truncation", i)
				}
			}
			// Appending after recovery lands on a record boundary.
			if err := s.Put(keyN(100), payloadN(100, 64)); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s = mustOpen(t, Options{Dir: dir})
			defer s.Close()
			if data, ok := s.Get(keyN(100)); !ok || !bytes.Equal(data, payloadN(100, 64)) {
				t.Fatal("post-recovery append lost")
			}
		})
	}
}

// A flipped payload byte must read as a miss (never as bad data), be
// counted, and heal on the next Put.
func TestDiskCRCMismatch(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, Options{Dir: dir, Recorder: reg})
	if err := s.Put(keyN(1), payloadN(1, 128)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip one byte inside the payload (past the 40-byte header).
	path := segPath(dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+50] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, Options{Dir: dir, Recorder: reg})
	defer s.Close()
	if _, ok := s.Get(keyN(1)); ok {
		t.Fatal("corrupt record served")
	}
	if got := s.Stats().Corrupt; got != 1 {
		t.Fatalf("Corrupt = %d", got)
	}
	if reg.Counter("disk.corrupt").Value() != 1 {
		t.Fatal("disk.corrupt counter not bumped")
	}
	// The slot heals: a fresh Put appends a new record and serves.
	if err := s.Put(keyN(1), payloadN(1, 128)); err != nil {
		t.Fatal(err)
	}
	if data, ok := s.Get(keyN(1)); !ok || !bytes.Equal(data, payloadN(1, 128)) {
		t.Fatal("healed record not served")
	}
}

// Outgrowing the byte budget deletes the oldest sealed segments
// whole; the newest records survive and the store fits its budget.
func TestDiskBudgetReclamation(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, Options{
		Dir:          dir,
		SegmentBytes: 4 << 10,
		MaxBytes:     16 << 10,
		Recorder:     reg,
	})
	defer s.Close()
	const n = 64 // 64 × ~1KiB ≫ 16KiB budget
	for i := 0; i < n; i++ {
		if err := s.Put(keyN(i), payloadN(i, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Reclaimed == 0 {
		t.Fatal("no segments reclaimed despite budget overrun")
	}
	if st.Bytes > 16<<10 {
		t.Fatalf("store holds %d bytes over a %d budget", st.Bytes, 16<<10)
	}
	// The newest record is always resident; the oldest aged out.
	if _, ok := s.Get(keyN(n - 1)); !ok {
		t.Fatal("newest record reclaimed")
	}
	if _, ok := s.Get(keyN(0)); ok {
		t.Fatal("oldest record survived reclamation")
	}
	if reg.Counter("disk.reclaimed_segments").Value() != st.Reclaimed {
		t.Fatal("reclaimed counter out of sync")
	}
	// Only budget-many files remain on disk.
	ents, _ := os.ReadDir(dir)
	var files int
	for _, e := range ents {
		if !e.IsDir() {
			files++
		}
	}
	if int64(files)*(4<<10) > (16<<10)+(4<<10) {
		t.Fatalf("%d segment files exceed the budget's worth", files)
	}
}

// Foreign files in the directory are ignored, not deleted or parsed.
func TestDiskIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Options{Dir: dir})
	defer s.Close()
	if err := s.Put(keyN(1), payloadN(1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("foreign file disturbed")
	}
}

func TestDiskRejectsOversizedRecord(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxRecordBytes: 100})
	defer s.Close()
	if err := s.Put(keyN(1), make([]byte, 101)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

// A nil registry is a valid, disabled metrics sink: the store still
// answers and keeps its own Stats.
func TestNilRegistryIsDisabled(t *testing.T) {
	var reg *obs.Registry
	s := mustOpen(t, Options{Dir: t.TempDir(), Recorder: reg})
	defer s.Close()
	if err := s.Put(keyN(1), payloadN(1, 64)); err != nil {
		t.Fatal(err)
	}
	if data, ok := s.Get(keyN(1)); !ok || !bytes.Equal(data, payloadN(1, 64)) {
		t.Fatal("record lost with nil registry")
	}
	if st := s.Stats(); st.Hits != 1 || st.Writes != 1 {
		t.Errorf("stats with nil registry: %+v", st)
	}
}
