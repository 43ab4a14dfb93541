package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func testOptions(dir string) Options {
	return Options{Dir: dir, SegmentBytes: 1 << 10, MaxBytes: 1 << 20, MaxFrameBytes: 1 << 10}
}

func mustOpen(t testing.TB, opts Options, visit func(Frame, []byte)) *Log {
	t.Helper()
	l, err := Open(opts, visit)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func payload(n int) []byte {
	return []byte(fmt.Sprintf("payload-%d-%s", n, bytes.Repeat([]byte{'x'}, n%50)))
}

// frames reopens dir and returns every intact frame's payload, in
// order, checking each against its CRC.
func frames(t *testing.T, opts Options) [][]byte {
	t.Helper()
	var found []Frame
	l := mustOpen(t, opts, func(f Frame, _ []byte) { found = append(found, f) })
	defer l.Close()
	var out [][]byte
	for _, f := range found {
		p, err := l.Read(f)
		if err != nil {
			t.Fatalf("Read %+v: %v", f, err)
		}
		out = append(out, p)
	}
	return out
}

func TestAppendRollReopen(t *testing.T) {
	opts := testOptions(t.TempDir())
	l := mustOpen(t, opts, nil)
	var want [][]byte
	rolls := 0
	for i := 0; i < 100; i++ {
		p := payload(i)
		f, rolled, err := l.Append(p[:3], p[3:]) // parts concatenate
		if err != nil {
			t.Fatal(err)
		}
		if got, err := l.Read(f); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("frame %d reads %q, %v", i, got, err)
		}
		if rolled {
			rolls++
		}
		want = append(want, p)
	}
	st := l.Stats()
	if rolls == 0 || st.Segments != rolls+1 {
		t.Fatalf("%d rolls, stats %+v", rolls, st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := frames(t, opts)
	if len(got) != len(want) {
		t.Fatalf("%d frames after reopen, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d: %q, want %q", i, got[i], want[i])
		}
	}
}

// shortFile cuts every write in half and fails it, as a full disk
// would.
type shortFile struct{ segFile }

func (f shortFile) WriteAt(p []byte, off int64) (int, error) {
	n, _ := f.segFile.WriteAt(p[:len(p)/2], off)
	return n, errors.New("no space left on device")
}

// A failed append must leave the file at the last frame boundary, so
// later appends land where the ledger says and survive a reopen.
func TestFailedAppendKeepsFrameBoundary(t *testing.T) {
	opts := testOptions(t.TempDir())
	opts.SegmentBytes = 1 << 20
	l := mustOpen(t, opts, nil)
	if _, _, err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	l.f = shortFile{l.f}
	if _, _, err := l.Append([]byte("torn record")); err == nil {
		t.Fatal("short write reported success")
	}
	l.f = l.f.(shortFile).segFile
	f, _, err := l.Append([]byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := l.Read(f); err != nil || string(got) != "after" {
		t.Fatalf("append after a failed one reads %q, %v", got, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = mustOpen(t, opts, nil)
	if st := l.Stats(); st.Truncated != 0 {
		t.Errorf("reopen cut a tail: %+v", st)
	}
	l.Close()
	got := frames(t, opts)
	if len(got) != 2 || string(got[0]) != "before" || string(got[1]) != "after" {
		t.Fatalf("frames after reopen: %q", got)
	}
}

// Torn tails — zero fill, an oversized length, a frame running past
// EOF — are cut at open; everything before them survives.
func TestOpenTruncatesTornTail(t *testing.T) {
	for name, tail := range map[string][]byte{
		"partial header": {1, 2, 3},
		"zero fill":      make([]byte, 20),
		"oversized":      binary.LittleEndian.AppendUint32(make([]byte, 0, 12), 1<<20),
		"past EOF":       append(binary.LittleEndian.AppendUint32(nil, 100), 0, 0, 0, 0, 'x'),
	} {
		t.Run(name, func(t *testing.T) {
			opts := testOptions(t.TempDir())
			l := mustOpen(t, opts, nil)
			for i := 0; i < 3; i++ {
				l.Append(payload(i))
			}
			l.Close()
			path := segPath(opts.Dir, 1)
			good, _ := os.ReadFile(path)
			if err := os.WriteFile(path, append(good, tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			l = mustOpen(t, opts, nil)
			if st := l.Stats(); st.Truncated != 1 || st.Bytes != int64(len(good)) {
				t.Errorf("stats after torn tail: %+v (want %d bytes)", st, len(good))
			}
			l.Close()
			if fi, _ := os.Stat(path); fi.Size() != int64(len(good)) {
				t.Errorf("file is %d bytes, want %d", fi.Size(), len(good))
			}
			if got := frames(t, opts); len(got) != 3 {
				t.Errorf("%d frames survive, want 3", len(got))
			}
		})
	}
}

func TestReadReportsCorruptFrame(t *testing.T) {
	opts := testOptions(t.TempDir())
	l := mustOpen(t, opts, nil)
	a, _, _ := l.Append([]byte("first"))
	b, _, _ := l.Append([]byte("second"))
	l.Close()
	path := segPath(opts.Dir, 1)
	raw, _ := os.ReadFile(path)
	raw[a.Off] ^= 0xff
	os.WriteFile(path, raw, 0o644)

	l = mustOpen(t, opts, nil)
	defer l.Close()
	if _, err := l.Read(a); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped frame: %v, want ErrCorrupt", err)
	}
	if p, err := l.Read(b); err != nil || string(p) != "second" {
		t.Errorf("intact frame: %q, %v", p, err)
	}
}

func TestReclaimOldestFirst(t *testing.T) {
	opts := testOptions(t.TempDir())
	opts.SegmentBytes, opts.MaxBytes = 256, 1024
	l := mustOpen(t, opts, nil)
	defer l.Close()
	var gone []Segment
	for i := 0; i < 100; i++ {
		if _, _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
		gone = append(gone, l.Reclaim()...)
	}
	if len(gone) == 0 {
		t.Fatal("nothing reclaimed")
	}
	for i, seg := range gone {
		if seg.ID != int64(i+1) {
			t.Fatalf("reclaimed %d as number %d: not oldest first", seg.ID, i)
		}
		if _, err := os.Stat(seg.Path); !os.IsNotExist(err) {
			t.Errorf("reclaimed %s still on disk", seg.Path)
		}
	}
	if st := l.Stats(); st.Bytes > opts.MaxBytes {
		t.Errorf("log holds %d bytes over a %d budget", st.Bytes, opts.MaxBytes)
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"seg-00000001.dat", "seg-00000001.jsonl.gz", "seg-x.log", "README"} {
		os.WriteFile(filepath.Join(dir, name), []byte("not a segment"), 0o644)
	}
	l := mustOpen(t, testOptions(dir), nil)
	l.Append([]byte("mine"))
	if st := l.Stats(); st.Segments != 1 || st.Truncated != 0 {
		t.Errorf("foreign files counted: %+v", st)
	}
	l.Close()
	ents, _ := os.ReadDir(dir)
	if len(ents) != 5 {
		t.Errorf("%d files, want the 4 foreign ones plus one segment", len(ents))
	}
}

// FuzzSeglogOpen treats arbitrary bytes as a segment file: Open must
// not panic, must leave the file at a frame boundary, and every frame
// it keeps must read back CRC-verified or as a corrupt miss.
func FuzzSeglogOpen(f *testing.F) {
	var valid []byte
	for _, p := range []string{"a", "hello", "a longer payload that spans more than the head"} {
		valid = binary.LittleEndian.AppendUint32(valid, uint32(len(p)))
		valid = binary.LittleEndian.AppendUint32(valid, crc32.ChecksumIEEE([]byte(p)))
		valid = append(valid, p...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte{}, valid...), make([]byte, 12)...))
	bad := append([]byte{}, valid...)
	bad[HeaderSize] ^= 1
	f.Add(bad)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := testOptions(t.TempDir())
		path := segPath(opts.Dir, 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var kept []Frame
		l, err := Open(opts, func(f Frame, head []byte) {
			if len(head) != min(int(f.Len), HeadBytes) {
				t.Fatalf("head of %d bytes for a %d-byte frame", len(head), f.Len)
			}
			kept = append(kept, f)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var end int64
		for _, f := range kept {
			if f.Off != end+HeaderSize {
				t.Fatalf("frame at %d, want %d", f.Off, end+HeaderSize)
			}
			end = f.Off + int64(f.Len)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != end {
			t.Fatalf("file not cut at the last kept frame's end %d: %v, %v", end, fi, err)
		}
		for _, f := range kept {
			p, err := l.Read(f)
			if errors.Is(err, ErrCorrupt) {
				continue
			}
			if err != nil {
				t.Fatalf("Read %+v: %v", f, err)
			}
			if crc32.ChecksumIEEE(p) != f.CRC || len(p) != int(f.Len) {
				t.Fatalf("Read %+v returned unverified bytes", f)
			}
		}
	})
}
