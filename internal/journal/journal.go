// Package journal is an append-only binary journal: length-prefixed,
// CRC-checked entries in size-rotated segment files. The serving layer
// uses it for the durable alert journal next to the in-memory ring, and
// for the record/replay capture stream — both need exactly what a
// journal gives: cheap appends, byte-stable files (the replay contract
// is a bit-for-bit diff), and crash tolerance.
//
// # Layout
//
// A journal named "alerts.jnl" is the active segment plus its rotated
// predecessors, oldest first:
//
//	alerts.jnl.000001   oldest rotated segment
//	alerts.jnl.000002
//	alerts.jnl          active segment
//
// Every segment starts with the 8-byte magic "CANJRNL1"; each entry is
// a 4-byte little-endian payload length, a 4-byte little-endian IEEE
// CRC32 of the payload, and the payload itself. Appends go to the
// active segment; when the next entry would push it past
// Options.MaxBytes it is renamed to the next .NNNNNN slot and a fresh
// active segment is started, so no segment (beyond a single oversized
// entry) exceeds the cap.
//
// # Writes and group commit
//
// Writer.Append writes each entry, header and payload, with one write
// call: an appended entry is in the file (the OS page cache) when
// Append returns. A Set opened with Options.Group instead stages
// consecutive entries of one key in a single Set-wide buffer and writes
// the whole group with one call when the key changes, when the group
// reaches groupCap bytes, on Set.Flush (the serving layer calls it when
// its feed runs dry), and on Sync, Close and rotation. The file bytes
// are the same either way; only the number of write calls changes.
//
// # Crash tolerance
//
// A process crash loses what was not yet written: nothing for a
// write-through journal, at most the unflushed group for a grouped Set.
// A crash can also leave a torn entry at the active segment's tail — a
// partial header, a short payload, or a payload that fails its CRC —
// when it lands mid-write. OpenWriter scans the segment on open and
// truncates it back to the last intact entry, so the journal is
// append-ready again and every entry that was fully written survives.
// Read tolerates (and reports) the same torn tail without modifying the
// file. Without Options.Sync an OS crash can lose more: whatever the
// page cache had not written back.
//
// A failed write (ENOSPC, a short write) can leave a torn entry in a
// live file, too. The Writer then refuses every later append, flush and
// sync with that same error instead of appending behind the torn bytes,
// where a reader would never find them; reopening the journal recovers
// the tail as after a crash.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	magic      = "CANJRNL1"
	headerSize = len(magic)
	entryHead  = 8 // u32 payload length + u32 CRC32(payload)

	// MaxEntry bounds one payload. It is a corruption firewall, not a
	// capacity knob: a torn length field must not make recovery (or a
	// reader) trust a multi-gigabyte allocation.
	MaxEntry = 16 << 20

	// groupCap is the staged size at which a grouped Set writes its
	// group out without waiting for a key change or a Flush. It bounds
	// the group buffer (an oversized entry aside) and what a crash can
	// lose.
	groupCap = 256 << 10
)

// ErrNotJournal reports a file whose header is not the journal magic —
// a different file altogether, which recovery must refuse to truncate.
var ErrNotJournal = errors.New("journal: bad magic (not a journal file)")

// Options parameterizes a Writer or a Set.
type Options struct {
	// MaxBytes caps one segment file; an append that would exceed it
	// rotates first. Zero disables rotation (one unbounded segment).
	MaxBytes int64
	// Sync fsyncs after every write. Durable but slow; off, entries are
	// flushed by the OS and forced down on Close.
	Sync bool
	// Group makes a Set commit in groups (see the package doc): appends
	// are staged and written out per group, not per entry. A Writer
	// ignores it.
	Group bool
}

// Writer appends entries to the active segment of one journal.
// Not safe for concurrent use; callers serialize (Set does).
type Writer struct {
	path string
	opts Options
	f    *os.File
	size int64 // bytes written to the active segment
	seq  int   // next rotation slot, 1-based
	buf  []byte
	// err is the first write, rotation or sync failure; once set, the
	// Writer refuses everything but Close with it.
	err error
}

// OpenWriter opens (or creates) the journal at path for appending,
// recovering a torn tail left by a crash: the active segment is
// truncated back to its last intact entry. The parent directory must
// exist.
func OpenWriter(path string, opts Options) (*Writer, error) {
	w := &Writer{path: path, opts: opts, seq: nextSeq(path)}
	if err := w.openActive(); err != nil {
		return nil, err
	}
	return w, nil
}

// openActive opens the active segment, creating or recovering it.
func (w *Writer) openActive() error {
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return err
	}
	valid, _, _, err := scan(data)
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: %s: %w", w.path, err)
	}
	if valid == 0 {
		// New (or fully torn-at-header) segment: start from the magic.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		if _, err := f.WriteAt([]byte(magic), 0); err != nil {
			f.Close()
			return err
		}
		valid = int64(headerSize)
	} else if valid < int64(len(data)) {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	w.f, w.size = f, valid
	return nil
}

// Append writes one entry to the active segment with one write call,
// rotating first when the entry would push the segment past
// Options.MaxBytes.
func (w *Writer) Append(payload []byte) error {
	buf, err := w.stage(w.buf[:0], payload)
	w.buf = buf[:0]
	if err != nil {
		return err
	}
	return w.write(buf)
}

// stage appends one entry — header and payload — to dst, which holds
// the Writer's staged, unwritten entries, and returns the extended
// buffer. When the entry would push the segment past Options.MaxBytes,
// stage writes dst and rotates first, so the returned buffer then holds
// the new entry alone.
func (w *Writer) stage(dst, payload []byte) ([]byte, error) {
	if err := w.usable(); err != nil {
		return dst, err
	}
	if len(payload) > MaxEntry {
		return dst, fmt.Errorf("journal: entry of %d bytes exceeds the %d byte bound", len(payload), MaxEntry)
	}
	size := w.size + int64(len(dst))
	if need := int64(entryHead + len(payload)); w.opts.MaxBytes > 0 && size > int64(headerSize) && size+need > w.opts.MaxBytes {
		if err := w.write(dst); err != nil {
			return dst[:0], err
		}
		dst = dst[:0]
		if err := w.rotate(); err != nil {
			return dst, w.fail(err)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// write writes b — staged entries — to the active segment in one call.
// A failure is sticky: b may be partly in the file, and an entry
// appended behind it would be unreachable.
func (w *Writer) write(b []byte) error {
	if err := w.usable(); err != nil || len(b) == 0 {
		return err
	}
	if _, err := w.f.Write(b); err != nil {
		return w.fail(err)
	}
	w.size += int64(len(b))
	if w.opts.Sync {
		if err := w.f.Sync(); err != nil {
			return w.fail(err)
		}
	}
	return nil
}

// usable reports why the Writer cannot take entries, or nil.
func (w *Writer) usable() error {
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return errors.New("journal: writer is closed")
	}
	return nil
}

// fail makes err the Writer's sticky error.
func (w *Writer) fail(err error) error {
	w.err = fmt.Errorf("journal: %w (writer disabled; reopen to recover)", err)
	return w.err
}

// rotate seals the active segment into the next numbered slot and
// starts a fresh one.
func (w *Writer) rotate() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f = nil
	if err := os.Rename(w.path, segmentName(w.path, w.seq)); err != nil {
		return err
	}
	w.seq++
	return w.openActive()
}

// Size returns the active segment's size in bytes, including the magic
// header: what was written, not what a grouped Set still stages.
// Rotated segments are capped at Options.MaxBytes and not counted here.
func (w *Writer) Size() int64 { return w.size }

// Segments returns how many segment files the journal currently spans:
// rotated slots plus the active segment.
func (w *Writer) Segments() int { return w.seq }

// Sync forces the active segment down to stable storage.
func (w *Writer) Sync() error {
	if w.f == nil || w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	return nil
}

// Close syncs and closes the active segment. The Writer is unusable
// afterwards. A Writer disabled by a failed write closes its file and
// returns that failure.
func (w *Writer) Close() error {
	if w.f == nil {
		return w.err
	}
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// segmentName is the rotated slot path: "alerts.jnl" slot 3 is
// "alerts.jnl.000003". Fixed width keeps lexicographic order equal to
// rotation order.
func segmentName(path string, seq int) string {
	return fmt.Sprintf("%s.%06d", path, seq)
}

// nextSeq is the first free rotation slot for a journal path.
func nextSeq(path string) int {
	next := 1
	for _, seg := range Segments(path) {
		var n int
		if _, err := fmt.Sscanf(seg, path+".%06d", &n); err == nil && n >= next {
			next = n + 1
		}
	}
	return next
}

// Segments lists a journal's rotated segment files, oldest first. The
// active segment is not included (it may not exist yet).
func Segments(path string) []string {
	matches, _ := filepath.Glob(path + ".[0-9][0-9][0-9][0-9][0-9][0-9]")
	sort.Strings(matches)
	return matches
}

// Read returns every entry of the journal at path — rotated segments
// oldest first, then the active segment. torn reports that a segment
// ended in a partial entry (crash tail); the intact entries before it
// are still returned. A missing active segment with no rotated
// segments is an error.
func Read(path string) (entries [][]byte, torn bool, err error) {
	files := Segments(path)
	if _, serr := os.Stat(path); serr == nil {
		files = append(files, path)
	} else if len(files) == 0 {
		return nil, false, serr
	}
	for _, f := range files {
		es, t, err := ReadSegment(f)
		if err != nil {
			return nil, false, err
		}
		entries = append(entries, es...)
		torn = torn || t
	}
	return entries, torn, nil
}

// ReadSegment returns one segment file's intact entries; torn reports
// a partial entry at its tail.
func ReadSegment(path string) (entries [][]byte, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	_, entries, torn, err = scan(data)
	if err != nil {
		return nil, false, fmt.Errorf("journal: %s: %w", path, err)
	}
	return entries, torn, nil
}

// scan walks one segment image and returns the byte length of its
// valid prefix and the intact entries inside it. torn means the image
// continued past the valid prefix (a partial or corrupt entry).
// A non-journal magic is an error; a file shorter than the magic is
// treated as fully torn (a crash before the header landed).
func scan(data []byte) (valid int64, entries [][]byte, torn bool, err error) {
	if len(data) < headerSize {
		return 0, nil, len(data) > 0, nil
	}
	if string(data[:headerSize]) != magic {
		return 0, nil, false, ErrNotJournal
	}
	off := int64(headerSize)
	for {
		rest := int64(len(data)) - off
		if rest == 0 {
			return off, entries, false, nil
		}
		if rest < entryHead {
			return off, entries, true, nil
		}
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > MaxEntry || rest < entryHead+n {
			return off, entries, true, nil
		}
		payload := data[off+entryHead : off+entryHead+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return off, entries, true, nil
		}
		entries = append(entries, payload)
		off += entryHead + n
	}
}

// Set manages one journal per key under a directory — the serving
// layer's shape: one alert journal per bus. Files are
// <dir>/<FileName(key)>; writers open lazily on first append. Safe for
// concurrent use.
type Set struct {
	dir  string
	opts Options

	mu      sync.Mutex
	writers map[string]*Writer
	closed  bool
	// pend is the writer whose entries buf stages (Options.Group); nil
	// when nothing is staged. One buffer serves every key.
	pend *Writer
	buf  []byte
	// finalStats freezes the per-key sizes at Close, keeping the
	// serving layer's journal gauges truthful after a drain.
	finalStats []KeyStats
}

// OpenSet opens (creating the directory if needed) a journal set.
func OpenSet(dir string, opts Options) (*Set, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Set{dir: dir, opts: opts, writers: make(map[string]*Writer)}, nil
}

// Append writes one entry to the key's journal, opening (and
// recovering) it on first use. A grouped Set (Options.Group) stages the
// entry instead, writing out the previous key's group first; an error
// may then come from that earlier group, whose entries are lost.
func (s *Set) Append(key string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("journal: set is closed")
	}
	w, ok := s.writers[key]
	if !ok {
		var err error
		w, err = OpenWriter(filepath.Join(s.dir, FileName(key)), s.opts)
		if err != nil {
			return err
		}
		s.writers[key] = w
	}
	if !s.opts.Group {
		return w.Append(payload)
	}
	if w != s.pend {
		if err := s.flushLocked(); err != nil {
			return err
		}
		s.pend = w
	}
	var err error
	if s.buf, err = w.stage(s.buf, payload); err != nil {
		// A refused entry leaves the group staged; a failed write
		// leaves nothing to stage.
		if len(s.buf) == 0 {
			s.pend = nil
		}
		return err
	}
	if len(s.buf) >= groupCap {
		return s.flushLocked()
	}
	return nil
}

// Flush writes the staged group, if any, with one write call. It is a
// no-op on a write-through Set.
func (s *Set) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Set) flushLocked() error {
	if s.pend == nil {
		return nil
	}
	err := s.pend.write(s.buf)
	s.pend, s.buf = nil, s.buf[:0]
	return err
}

// KeyStats describes one key's journal at a point in time — the
// serving layer's /metrics gauges.
type KeyStats struct {
	// Key is the journal key (a bus channel).
	Key string
	// ActiveBytes is the active segment's size, including the header.
	ActiveBytes int64
	// Segments is the number of segment files: rotated plus active.
	Segments int
}

// Stats reports every open journal in the set, sorted by key. Keys
// that have never been appended to do not appear (writers open
// lazily). After Close the final sizes remain readable, so a /metrics
// scrape of a drained server still reports what was journaled.
func (s *Set) Stats() []KeyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.finalStats
	}
	return s.statsLocked()
}

func (s *Set) statsLocked() []KeyStats {
	out := make([]KeyStats, 0, len(s.writers))
	for key, w := range s.writers {
		out = append(out, KeyStats{Key: key, ActiveBytes: w.Size(), Segments: w.Segments()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Sync writes the staged group and forces every open journal down to
// stable storage.
func (s *Set) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	errs := []error{s.flushLocked()}
	for _, w := range s.writers {
		errs = append(errs, w.Sync())
	}
	return errors.Join(errs...)
}

// Close writes the staged group, then syncs and closes every journal in
// the set.
func (s *Set) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	errs := []error{s.flushLocked()}
	if !s.closed {
		s.finalStats = s.statsLocked()
	}
	s.closed = true
	for _, w := range s.writers {
		errs = append(errs, w.Close())
	}
	s.writers = make(map[string]*Writer)
	return errors.Join(errs...)
}

// FileName maps a journal key (a bus channel) to its file name,
// injectively, with the same escaping the checkpoint store uses:
// [A-Za-z0-9-] bytes pass through, every other byte (including '_',
// the escape introducer) becomes "_xx" hex, the empty key maps to "_"
// (which no escaped key can produce), and ".jnl" is appended. Distinct
// keys can never share a file.
func FileName(key string) string {
	var sb strings.Builder
	for i := 0; i < len(key); i++ {
		switch b := key[i]; {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9', b == '-':
			sb.WriteByte(b)
		default:
			fmt.Fprintf(&sb, "_%02x", b)
		}
	}
	name := sb.String()
	if name == "" {
		name = "_"
	}
	return name + ".jnl"
}
