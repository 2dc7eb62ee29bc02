// Record/replay: Config.RecordDir captures everything a later run
// needs to reproduce this one's alert journal bit for bit, leaning on
// the engine's determinism guarantee (the alert stream is bit-identical
// to the sequential detector, per bus).
//
// A capture directory looks like:
//
//	manifest.json        serving configuration + snapshot identity
//	snapshot.snap        the served model (store.Snapshot)
//	capture/<bus>.jnl    post-demux record slabs, one journal entry per
//	                     slab, per bus
//	journal/<bus>.jnl    the alert journal (when -record defaults the
//	                     journal into the capture directory)
//	replay/<bus>.jnl     alert journal of a later -replay run
//
// Capture entry format, by manifest version: version 2 (written now)
// stores each slab as one compact capture entry (trace.AppendCapture:
// the channel once, then per record a time delta, a flags byte with the
// DLC, the identifier, the data and the source only when it changes —
// about 14 bytes a frame); version 1 stored it as a CTR1 binary stream
// (trace.AppendBinary: the channel and an absolute time in every
// record, about 35 bytes a frame). Replay reads both. The capture
// journal commits in groups (journal.Options.Group): entries are
// staged while consecutive slabs belong to one bus and written out when
// the bus changes, the group reaches its cap, or the serve feed runs
// dry — about one write per ingest request. A crash of the recording
// process therefore loses at most the unflushed group, on top of any
// torn tail, which replay skips with a degradation note.
//
// The capture taps the supervisor's demux seam, so what is recorded is
// exactly what the engines consumed: per-bus record content, order and
// batch boundaries. Replay pushes the captured slabs back through an
// identical pipeline (same snapshot, batching, adaptation options) bus
// by bus; per-bus determinism then forces the replayed alert journal
// to equal the recorded one byte for byte.
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

// manifestVersion is the capture-directory format version this build
// writes; it reads every version back to manifestV1.
const (
	manifestVersion = 2
	manifestV1      = 1 // capture entries in the CTR1 binary format
)

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
	// Buffer and Batch mirror Config. Determinism does not depend on
	// them, but replaying with the recorded values keeps the replayed
	// run's performance envelope — and any bug being hunted — faithful
	// to the incident.
	Buffer int `json:"buffer,omitempty"`
	Batch  int `json:"batch,omitempty"`
	// Shards is read from captures recorded before every bus ran one
	// lane, and no longer written.
	Shards int `json:"shards,omitempty"`
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
	set, err := journal.OpenSet(filepath.Join(dir, CaptureSubdir), journal.Options{Group: true})
	if err != nil {
		return err
	}
	s.capture = set
	return nil
}

// captureSlab is the supervisor tap: persist one demuxed slab — the
// slab is owned by the consumer the moment the tap returns, so it is
// serialized here, into the server's reused encode buffer, and staged
// in the capture's group, not retained. Runs on the demux goroutine; a
// failure disables capture with a degradation note instead of stalling
// or crashing the pipeline (an incomplete capture is an observability
// loss, not a serving loss).
func (s *Server) captureSlab(channel string, slab []trace.Record) {
	if s.captureFail.Load() {
		return
	}
	buf, err := trace.AppendCapture(s.captureBuf[:0], slab)
	s.captureBuf = buf
	if err == nil {
		err = s.capture.Append(channel, buf)
	}
	if err != nil && s.captureFail.CompareAndSwap(false, true) {
		s.noteDegraded("record capture disabled: bus %q: %v", channel, err)
	}
}

// flushCapture is the serve source's idle hook: the feed is empty, so
// write the staged capture group out before the demux blocks. A failed
// write disables capture like a failed append.
func (s *Server) flushCapture() {
	if s.captureFail.Load() {
		return
	}
	if err := s.capture.Flush(); err != nil && s.captureFail.CompareAndSwap(false, true) {
		s.noteDegraded("record capture disabled: %v", err)
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
	if m.Version < manifestV1 || m.Version > manifestVersion {
		return nil, fmt.Errorf("server: capture manifest version %d (this build reads %d to %d)", m.Version, manifestV1, manifestVersion)
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
// boundaries). Entries decode by the manifest's version. It returns how
// many records were fed. The caller Drains afterwards to flush final
// windows, exactly like the recorded run's shutdown did.
func (s *Server) ReplayCapture(dir string) (int, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return 0, err
	}
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
			var slab []trace.Record
			if m.Version == manifestV1 {
				slab, err = trace.ReadBinary(bytes.NewReader(e))
			} else {
				slab, err = trace.DecodeCapture(nil, e)
			}
			if err != nil {
				return records, fmt.Errorf("server: capture %s entry %d: %w", filepath.Base(path), i, err)
			}
			if err := s.pushSlab(slab); err != nil {
				return records, err
			}
			records += len(slab)
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
