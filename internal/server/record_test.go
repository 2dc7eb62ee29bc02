package server_test

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"canids/internal/journal"
	"canids/internal/server"
	"canids/internal/trace"
)

// recordRun serves the attacked capture on two buses with recording
// armed and the alert journal in the capture directory, drains, and
// returns the capture directory and the recorded run's alert total.
func recordRun(t *testing.T) (string, uint64) {
	t.Helper()
	snap, _, attacked := loadFixture(t)
	csv := encodeCSV(t, attacked)
	dir := t.TempDir()
	recorded, url := startServer(t, server.Config{
		Snapshot: snap, MaxAlerts: 1 << 20,
		RecordDir:  dir,
		JournalDir: filepath.Join(dir, "journal"),
	})
	for _, bus := range []string{"can-a", "can-b"} {
		if code := post(t, url+"/ingest/"+bus+"?format=csv", csv, nil); code != http.StatusOK {
			t.Fatalf("%s ingest status %d", bus, code)
		}
	}
	if err := recorded.Drain(); err != nil {
		t.Fatal(err)
	}
	if notes := recorded.DegradedNotes(); len(notes) != 0 {
		t.Fatalf("recording degraded: %v", notes)
	}
	if recorded.AlertsTotal() == 0 {
		t.Fatal("recorded run produced no alerts; nothing to verify")
	}
	return dir, recorded.AlertsTotal()
}

// replay re-runs a capture directory into a fresh server journaling to
// <dir>/replay and returns it drained, with the records it fed.
func replay(t *testing.T, dir string) (*server.Server, int) {
	t.Helper()
	m, err := server.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := startServer(t, server.Config{
		Snapshot: snap, Buffer: m.Buffer, Batch: m.Batch, Adapt: m.Adapt, MaxAlerts: 1 << 20,
		JournalDir: filepath.Join(dir, "replay"),
	})
	n, err := s.ReplayCapture(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	return s, n
}

// sameJournals requires the replayed alert journal to equal the
// recorded one byte for byte.
func sameJournals(t *testing.T, dir string) {
	t.Helper()
	want := journalDirBytes(t, filepath.Join(dir, "journal"))
	got := journalDirBytes(t, filepath.Join(dir, "replay"))
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("replay journal has %d files, recorded has %d", len(got), len(want))
	}
	for name, w := range want {
		if g := got[name]; string(g) != string(w) {
			t.Fatalf("replay journal %s differs from the recorded run (%d vs %d bytes)", name, len(g), len(w))
		}
	}
}

// captureEntries reads every capture journal of a directory, by file.
func captureEntries(t *testing.T, dir string) map[string][][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, server.CaptureSubdir, "*.jnl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no capture journals (%v)", err)
	}
	out := make(map[string][][]byte)
	for _, f := range files {
		entries, torn, err := journal.Read(f)
		if err != nil || torn {
			t.Fatalf("%s: torn=%v err=%v", f, torn, err)
		}
		out[f] = entries
	}
	return out
}

// TestReplayVersion1Capture: a capture in the version-1 layout — CTR1
// binary entries, manifest version 1 — still replays its alert journal
// bit for bit. The version-1 directory is rebuilt from a recorded one,
// entry for entry, so it holds the same slabs.
func TestReplayVersion1Capture(t *testing.T) {
	dir, _ := recordRun(t)
	records := 0
	for path, entries := range captureEntries(t, dir) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		w, err := journal.OpenWriter(path, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			slab, err := trace.DecodeCapture(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			records += len(slab)
			v1, err := trace.AppendBinary(nil, trace.Trace(slab))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(v1); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	manifest := filepath.Join(dir, server.ManifestFile)
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["version"] != float64(2) {
		t.Fatalf("recorded manifest version %v, want 2", m["version"])
	}
	m["version"] = 1
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, n := replay(t, dir); n != records {
		t.Errorf("replayed %d records, the version-1 capture holds %d", n, records)
	}
	sameJournals(t, dir)
}

// TestReplayTornCaptureGroup: a recorder crash mid-write leaves the
// last group torn inside an entry. Replay feeds the intact prefix —
// every record but the torn entry's — and says so in a degradation
// note.
func TestReplayTornCaptureGroup(t *testing.T) {
	dir, _ := recordRun(t)
	all := captureEntries(t, dir)
	var path string
	total := 0
	for p, entries := range all {
		if path == "" || p < path {
			path = p
		}
		for _, e := range entries {
			slab, err := trace.DecodeCapture(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			total += len(slab)
		}
	}
	entries := all[path]
	last, err := trace.DecodeCapture(nil, entries[len(entries)-1])
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file inside the last entry's payload.
	if err := os.Truncate(path, info.Size()-int64(len(entries[len(entries)-1]))/2); err != nil {
		t.Fatal(err)
	}
	s, n := replay(t, dir)
	if want := total - len(last); n != want {
		t.Errorf("replayed %d records, want the intact prefix's %d", n, want)
	}
	notes := strings.Join(s.DegradedNotes(), "\n")
	if !strings.Contains(notes, "torn tail") || !strings.Contains(notes, filepath.Base(path)) {
		t.Errorf("replay of a torn capture noted %q, want a torn-tail note naming %s", notes, filepath.Base(path))
	}
}

// TestLoadManifestVersions: versions 1 and 2 load; anything else is
// refused with the versions this build reads.
func TestLoadManifestVersions(t *testing.T) {
	dir := t.TempDir()
	for _, v := range []int{0, 1, 2, 3} {
		raw, err := json.Marshal(server.Manifest{Version: v, SnapshotFile: server.SnapshotFile})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, server.ManifestFile), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = server.LoadManifest(dir)
		if ok := v == 1 || v == 2; ok != (err == nil) {
			t.Errorf("version %d: err = %v", v, err)
		}
	}
}
