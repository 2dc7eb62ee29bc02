// Record/replay: Config.RecordDir captures everything a later run
// needs to reproduce this one's alert journal bit for bit, leaning on
// the engine's determinism guarantee (the alert stream is bit-identical
// to the sequential detector at any shard count, per bus).
//
// A capture directory looks like:
//
//	manifest.json        serving configuration + snapshot identity
//	snapshot.snap        the served model (store.Snapshot)
//	capture/<bus>.jnl    post-demux record slabs, one journal entry per
//	                     slab (trace binary format), per bus
//	journal/<bus>.jnl    the alert journal (when -record defaults the
//	                     journal into the capture directory)
//	replay/<bus>.jnl     alert journal of a later -replay run
//
// The capture taps the supervisor's demux seam, so what is recorded is
// exactly what the engines consumed: per-bus record content, order and
// batch boundaries. Replay pushes the captured slabs back through an
// identical pipeline (same snapshot, shards, batching, adaptation
// options) bus by bus; per-bus determinism then forces the replayed
// alert journal to equal the recorded one byte for byte.
//
// The contract holds for runs that ended in a clean drain and had no
// mid-run reloads, crash-restarts or fault injection: a restart loses
// frames (counted in Stats.Lost) that the capture still carries, and a
// reload swaps models at a point the capture does not encode. Those
// runs still replay — against the startup snapshot, every captured
// frame processed — but the journals may legitimately differ.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"canids/internal/journal"
	"canids/internal/store"
	"canids/internal/trace"
)

// manifestVersion is the capture-directory format version.
const manifestVersion = 1

// ManifestFile and SnapshotFile are the fixed file names inside a
// capture directory; CaptureSubdir holds the per-bus record journals.
const (
	ManifestFile  = "manifest.json"
	SnapshotFile  = "snapshot.snap"
	CaptureSubdir = "capture"
)

// Manifest pins a capture's serving configuration: the snapshot the
// run served (by file and checksum, so replay refuses a swapped
// model) and every knob that shapes the alert stream.
type Manifest struct {
	Version        int    `json:"version"`
	SnapshotFile   string `json:"snapshot_file"`
	SnapshotSHA256 string `json:"snapshot_sha256"`
	// Shards, Buffer and Batch mirror Config. Determinism does not
	// depend on them (the engine guarantee), but replaying with the
	// recorded values keeps the replayed run's performance envelope —
	// and any engine bug being hunted — faithful to the incident.
	Shards int `json:"shards,omitempty"`
	Buffer int `json:"buffer,omitempty"`
	Batch  int `json:"batch,omitempty"`
	// Adapt reproduces online adaptation: promotions are driven purely
	// by the record stream at window boundaries, so the same options
	// over the same capture promote identically.
	Adapt *AdaptOptions `json:"adapt,omitempty"`
	// Journal is the alert-journal directory of the recorded run —
	// relative to the capture directory when inside it — so replay
	// knows what to diff against. Empty when the run did not journal.
	Journal string `json:"journal,omitempty"`
}

// setupRecord writes the capture directory skeleton at New: the served
// snapshot, the manifest, and the (empty) capture journal set.
func (s *Server) setupRecord() error {
	dir := s.cfg.RecordDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snapPath := filepath.Join(dir, SnapshotFile)
	if err := store.Save(snapPath, s.cfg.Snapshot); err != nil {
		return err
	}
	sum, err := fileSHA256(snapPath)
	if err != nil {
		return err
	}
	m := Manifest{
		Version:        manifestVersion,
		SnapshotFile:   SnapshotFile,
		SnapshotSHA256: sum,
		Shards:         s.cfg.Shards,
		Buffer:         s.cfg.Buffer,
		Batch:          s.cfg.Batch,
		Adapt:          s.cfg.Adapt,
	}
	if s.cfg.JournalDir != "" {
		m.Journal = s.cfg.JournalDir
		if rel, err := filepath.Rel(dir, s.cfg.JournalDir); err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			m.Journal = rel
		}
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	set, err := journal.OpenSet(filepath.Join(dir, CaptureSubdir), journal.Options{})
	if err != nil {
		return err
	}
	s.capture = set
	return nil
}

// captureSlab is the supervisor tap: persist one demuxed slab — the
// slab is owned by the consumer the moment the tap returns, so it is
// serialized here, into the server's reused encode buffer, not
// retained. Runs on the demux goroutine; a write failure disables
// capture with a degradation note instead of stalling or crashing the
// pipeline (an incomplete capture is an observability loss, not a
// serving loss).
func (s *Server) captureSlab(channel string, slab []trace.Record) {
	if s.captureFail.Load() {
		return
	}
	buf, err := trace.AppendBinary(s.captureBuf[:0], trace.Trace(slab))
	s.captureBuf = buf
	if err == nil {
		err = s.capture.Append(channel, buf)
	}
	if err != nil && s.captureFail.CompareAndSwap(false, true) {
		s.noteDegraded("record capture disabled: bus %q: %v", channel, err)
	}
}

// LoadManifest reads and sanity-checks a capture directory's manifest.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("server: capture manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("server: capture manifest version %d (this build reads %d)", m.Version, manifestVersion)
	}
	if m.SnapshotFile == "" {
		return nil, errors.New("server: capture manifest names no snapshot")
	}
	return &m, nil
}

// LoadSnapshot restores the capture's served model, verifying the
// manifest checksum first so a replay cannot silently run against a
// swapped or damaged snapshot.
func (m *Manifest) LoadSnapshot(dir string) (*store.Snapshot, error) {
	path := filepath.Join(dir, m.SnapshotFile)
	sum, err := fileSHA256(path)
	if err != nil {
		return nil, err
	}
	if m.SnapshotSHA256 != "" && sum != m.SnapshotSHA256 {
		return nil, fmt.Errorf("server: capture snapshot %s does not match the manifest checksum (got %s, want %s)",
			m.SnapshotFile, sum, m.SnapshotSHA256)
	}
	return store.Load(path)
}

// JournalDir resolves the recorded run's alert-journal directory, or
// "" when the run did not journal.
func (m *Manifest) JournalDir(dir string) string {
	if m.Journal == "" {
		return ""
	}
	if filepath.IsAbs(m.Journal) {
		return m.Journal
	}
	return filepath.Join(dir, m.Journal)
}

// ReplayCapture pushes a capture directory's recorded record stream
// back into the running pipeline, bus by bus in sorted order (cross-bus
// interleaving carries no determinism weight — per-bus order does, and
// each bus's slabs re-enter in exactly their captured order and batch
// boundaries). It returns how many records were fed. The caller Drains
// afterwards to flush final windows, exactly like the recorded run's
// shutdown did.
func (s *Server) ReplayCapture(dir string) (int, error) {
	files, err := filepath.Glob(filepath.Join(dir, CaptureSubdir, "*.jnl"))
	if err != nil {
		return 0, err
	}
	sort.Strings(files)
	if len(files) == 0 {
		return 0, fmt.Errorf("server: no capture journals under %s", filepath.Join(dir, CaptureSubdir))
	}
	records := 0
	for _, path := range files {
		entries, torn, err := journal.Read(path)
		if err != nil {
			return records, err
		}
		if torn {
			s.noteDegraded("capture %s has a torn tail (recorder crashed mid-write); replaying the intact prefix", filepath.Base(path))
		}
		for i, e := range entries {
			tr, err := trace.ReadBinary(bytes.NewReader(e))
			if err != nil {
				return records, fmt.Errorf("server: capture %s entry %d: %w", filepath.Base(path), i, err)
			}
			if err := s.pushSlab([]trace.Record(tr)); err != nil {
				return records, err
			}
			records += len(tr)
		}
	}
	return records, nil
}

// pushSlab feeds one pre-built record slab into the pipeline — the
// replay path's equivalent of Ingest's flush, minus decoding and
// shedding (replay is the only client; backpressure just pacing it).
func (s *Server) pushSlab(slab []trace.Record) error {
	if len(slab) == 0 {
		return nil
	}
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	if !s.started.Load() {
		return ErrNotStarted
	}
	select {
	case s.feed <- slab:
		return nil
	case <-s.runDone:
		return ErrStopped
	}
}

// fileSHA256 is the hex SHA-256 of a file's contents.
func fileSHA256(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
