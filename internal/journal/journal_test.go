package journal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// entriesEqual asserts got matches the expected payloads, in order.
func entriesEqual(t *testing.T, got [][]byte, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("entry %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.jnl")
	w, err := OpenWriter(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("entry-%03d", i))
		want = append(want, p)
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	// An empty payload is a legal entry.
	want = append(want, []byte{})
	if err := w.Append(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Error("clean journal reported torn")
	}
	entriesEqual(t, got, want)
}

// TestJournalRotation drives the writer past MaxBytes repeatedly and
// checks that segments stay bounded, order survives rotation, and a
// reopened writer continues in the next free slot.
func TestJournalRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.jnl")
	const maxBytes = 256
	w, err := OpenWriter(path, Options{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	append50 := func() {
		for i := 0; i < 50; i++ {
			p := []byte(fmt.Sprintf("payload-%04d", len(want)))
			want = append(want, p)
			if err := w.Append(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	append50()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := Segments(path)
	if len(segs) == 0 {
		t.Fatalf("no rotated segments after %d bytes of entries", 20*len(want))
	}
	for _, seg := range append(segs, path) {
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > maxBytes {
			t.Errorf("%s is %d bytes, cap %d", seg, info.Size(), maxBytes)
		}
	}
	// Reopen and keep appending: the writer must rotate into fresh
	// slots, never clobber a sealed segment.
	w, err = OpenWriter(path, Options{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	append50()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Error("rotated journal reported torn")
	}
	entriesEqual(t, got, want)
}

// TestJournalTornTail crashes the journal at every possible tail
// length of the final entry and checks that reopening truncates back
// to the last intact entry and appending resumes cleanly.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	intact := [][]byte{[]byte("first"), []byte("second")}
	build := func(name string) (string, int64) {
		path := filepath.Join(dir, name)
		w, err := OpenWriter(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range intact {
			if err := w.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		size, _ := w.f.Seek(0, io.SeekCurrent)
		if err := w.Append([]byte("torn-away")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path, size
	}
	full, intactSize := build("full.jnl")
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Every cut strictly inside the final entry is a torn tail; cut at
	// intactSize is a clean file that simply lost the entry.
	for cut := intactSize; cut < int64(len(data)); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.jnl", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, torn, err := Read(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if wantTorn := cut > intactSize; torn != wantTorn {
			t.Errorf("cut %d: torn=%v, want %v", cut, torn, wantTorn)
		}
		entriesEqual(t, got, intact)

		// Recovery: reopen, append, and the journal is whole again.
		w, err := OpenWriter(path, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := w.Append([]byte("recovered")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, torn, err = Read(path)
		if err != nil {
			t.Fatal(err)
		}
		if torn {
			t.Errorf("cut %d: recovered journal still torn", cut)
		}
		entriesEqual(t, got, append(append([][]byte{}, intact...), []byte("recovered")))
	}
}

// TestJournalCorruptPayload flips a byte inside an entry: the CRC must
// refuse it and recovery must truncate from the damaged entry on.
func TestJournalCorruptPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jnl")
	w, err := OpenWriter(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"keep", "damage"} {
		if err := w.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, torn, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Error("corrupt payload not reported torn")
	}
	entriesEqual(t, got, [][]byte{[]byte("keep")})
}

// TestJournalRefusesForeignFile pins the recovery guard: a file that
// is not a journal must not be truncated into one.
func TestJournalRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.jnl")
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWriter(path, Options{}); err == nil {
		t.Fatal("opened a non-journal file for appending")
	}
	if _, _, err := Read(path); err == nil {
		t.Fatal("read a non-journal file as a journal")
	}
}

func TestSetKeysAreIsolatedAndSanitized(t *testing.T) {
	dir := t.TempDir()
	set, err := OpenSet(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"ms-can", "hs/can", "", "_", "hs_can"}
	for i, k := range keys {
		if err := set.Append(k, []byte(fmt.Sprintf("%d:%s", i, k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for i, k := range keys {
		name := FileName(k)
		if names[name] {
			t.Fatalf("key %q collides on file %q", k, name)
		}
		names[name] = true
		got, torn, err := Read(filepath.Join(dir, name))
		if err != nil || torn {
			t.Fatalf("key %q: err=%v torn=%v", k, err, torn)
		}
		entriesEqual(t, got, [][]byte{[]byte(fmt.Sprintf("%d:%s", i, k))})
	}
	if err := set.Append("x", nil); err == nil {
		t.Error("append on a closed set succeeded")
	}
}

// TestJournalWriteErrorIsSticky: once a write fails, the Writer refuses
// every later append, flush and sync with the same error and writes
// nothing more — an entry appended behind a torn one would be
// unreachable — and reopening recovers the journal. Closing the file
// under the writer makes its next write fail.
func TestJournalWriteErrorIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.jnl")
	w, err := OpenWriter(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("intact")); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w.f.Close()
	first := w.Append([]byte("lost"))
	if first == nil {
		t.Fatal("append to a closed file succeeded")
	}
	for name, call := range map[string]func() error{
		"append": func() error { return w.Append([]byte("later")) },
		"sync":   w.Sync,
	} {
		if err := call(); err != first {
			t.Errorf("%s after a failed write: %v, want the first error %v", name, err, first)
		}
	}
	if err := w.Close(); err != first {
		t.Errorf("close after a failed write: %v, want %v", err, first)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Errorf("file changed after the failed write: %d bytes, was %d", len(after), len(before))
	}
	w, err = OpenWriter(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("reopened")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn, err := Read(path)
	if err != nil || torn {
		t.Fatalf("reopened journal: torn=%v err=%v", torn, err)
	}
	entriesEqual(t, got, [][]byte{[]byte("intact"), []byte("reopened")})
}

// TestSetGroupCommit: a grouped Set stages consecutive entries of one
// key and writes them out on a key change, at Flush, at the group cap
// and at Close; the files hold exactly what a write-through Set writes.
// A write error while the group is flushed is sticky for that key.
func TestSetGroupCommit(t *testing.T) {
	dir := t.TempDir()
	set, err := OpenSet(dir, Options{Group: true})
	if err != nil {
		t.Fatal(err)
	}
	size := func(key string) int64 {
		info, err := os.Stat(filepath.Join(dir, FileName(key)))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	for i := 0; i < 3; i++ {
		if err := set.Append("a", []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := size("a"); got != int64(headerSize) {
		t.Errorf("staged group already written: %d bytes", got)
	}
	if err := set.Append("b", []byte("b0")); err != nil {
		t.Fatal(err)
	}
	if got, want := size("a"), int64(headerSize+3*(entryHead+2)); got != want {
		t.Errorf("key change left a at %d bytes, want %d", got, want)
	}
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := size("b"), int64(headerSize+entryHead+2); got != want {
		t.Errorf("Flush left b at %d bytes, want %d", got, want)
	}
	big := bytes.Repeat([]byte{'x'}, groupCap/4)
	for i := 0; i < 4; i++ {
		if err := set.Append("a", big); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := size("a"), int64(headerSize+3*(entryHead+2)+4*(entryHead+len(big))); got != want {
		t.Errorf("a group at the cap left a at %d bytes, want %d", got, want)
	}
	if err := set.Append("b", []byte("b1")); err != nil {
		t.Fatal(err)
	}

	// The staged b1 fails to write: the error comes back from Flush,
	// and again from b's next append.
	set.writers["b"].f.Close()
	bBefore, err := os.ReadFile(filepath.Join(dir, FileName("b")))
	if err != nil {
		t.Fatal(err)
	}
	first := set.Flush()
	if first == nil {
		t.Fatal("flush to a closed file succeeded")
	}
	if err := set.Append("b", []byte("b2")); err != first {
		t.Errorf("append after a failed flush: %v, want %v", err, first)
	}
	if err := set.Append("a", []byte("a3")); err != nil {
		t.Errorf("the other key's append: %v", err)
	}
	if err := set.Close(); err == nil {
		t.Error("close hid the failed write")
	}
	if bAfter, _ := os.ReadFile(filepath.Join(dir, FileName("b"))); !bytes.Equal(bAfter, bBefore) {
		t.Error("b's file changed after the failed write")
	}
	got, torn, err := Read(filepath.Join(dir, FileName("a")))
	if err != nil || torn {
		t.Fatalf("a: torn=%v err=%v", torn, err)
	}
	want := [][]byte{[]byte("a0"), []byte("a1"), []byte("a2"), big, big, big, big, []byte("a3")}
	entriesEqual(t, got, want)
}

// TestSetGroupMatchesWriteThrough: the same appends through a grouped
// and a write-through Set, across keys and segment rotations, leave
// byte-identical files.
func TestSetGroupMatchesWriteThrough(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, group := range []bool{false, true} {
		set, err := OpenSet(dirs[i], Options{MaxBytes: 300, Group: group})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 200; j++ {
			key := []string{"a", "a", "b", "c", "c", "c"}[j%6]
			if err := set.Append(key, bytes.Repeat([]byte{byte(j)}, j%37)); err != nil {
				t.Fatal(err)
			}
			if j%50 == 0 {
				if err := set.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(dirs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) < 6 {
		t.Fatalf("grouped set wrote %d files, write-through %d", len(got), len(want))
	}
	for i := range want {
		a, _ := os.ReadFile(filepath.Join(dirs[0], want[i].Name()))
		b, _ := os.ReadFile(filepath.Join(dirs[1], got[i].Name()))
		if got[i].Name() != want[i].Name() || !bytes.Equal(a, b) {
			t.Errorf("%s: grouped file differs from write-through %s", got[i].Name(), want[i].Name())
		}
	}
}

// TestSetGroupSteadyStateAllocs pins the grouped Set's request cycle —
// a dozen staged entries of one key, then Flush — at zero allocations
// once the group buffer has grown.
func TestSetGroupSteadyStateAllocs(t *testing.T) {
	set, err := OpenSet(t.TempDir(), Options{Group: true})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	payload := bytes.Repeat([]byte{7}, 900)
	cycle := func() {
		for i := 0; i < 12; i++ {
			if err := set.Append("bus0", payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := set.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Errorf("grouped Append+Flush: %v allocs per cycle, want 0", n)
	}
}
