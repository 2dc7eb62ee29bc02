//go:build linux

package server_test

import (
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"canids/internal/journal"
	"canids/internal/server"
)

// TestCaptureFlushErrorDisablesCapture: a write error while a capture
// group is written out — here ENOSPC, from /dev/full swapped in under
// the capture file's descriptor — disables capture with one
// degradation note, as an append error does, and serving goes on.
func TestCaptureFlushErrorDisablesCapture(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	csv := encodeCSV(t, attacked)
	dir := t.TempDir()
	s, url := startServer(t, server.Config{Snapshot: snap, RecordDir: dir})
	if code := post(t, url+"/ingest/can-a?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	capture, err := filepath.EvalSymlinks(filepath.Join(dir, server.CaptureSubdir))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(capture, journal.FileName("can-a"))
	// The idle feed writes the group out.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if info, err := os.Stat(path); err == nil && info.Size() > int64(len("CANJRNL1")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("capture group never written")
		}
	}
	fd := -1
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, e := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && target == path {
			if fd, err = strconv.Atoi(e.Name()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fd < 0 {
		t.Fatalf("no descriptor open on %s", path)
	}
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	if err := syscall.Dup3(int(full.Fd()), fd, syscall.O_CLOEXEC); err != nil {
		t.Fatal(err)
	}

	if code := post(t, url+"/ingest/can-a?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("ingest after the disk filled: status %d", code)
	}
	// The idle feed writes the second group out, into the full disk.
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(strings.Join(s.DegradedNotes(), "\n"), "capture"); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the failed group write was never noted")
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	var capNotes []string
	for _, n := range s.DegradedNotes() {
		if strings.Contains(n, "capture") {
			capNotes = append(capNotes, n)
		}
	}
	if len(capNotes) != 1 || !strings.Contains(capNotes[0], "record capture disabled") ||
		!strings.Contains(capNotes[0], syscall.ENOSPC.Error()) {
		t.Errorf("capture notes %q, want one note that capture was disabled by ENOSPC", capNotes)
	}
	if total, _ := s.Stats(); total.Frames != uint64(2*len(attacked)) {
		t.Errorf("served %d frames, want %d", total.Frames, 2*len(attacked))
	}
}
