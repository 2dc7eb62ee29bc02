// Package detect defines the common contract implemented by every
// intrusion detector in this repository — the paper's bit-entropy IDS
// (internal/core) and the two comparison baselines (internal/baseline) —
// so the evaluation harness can score them head to head.
package detect

import (
	"fmt"
	"math"
	"strings"
	"time"

	"canids/internal/trace"
)

// BitDeviation describes one identifier bit's state in an alerted window,
// as needed by the malicious-ID inference stage.
type BitDeviation struct {
	// Bit is the 1-based, MSB-first bit position (1..11 for CAN 2.0A).
	Bit int
	// Entropy is the measured binary entropy H(p) of the bit.
	Entropy float64
	// Template is the golden-template entropy for the bit.
	Template float64
	// Threshold is the allowed |Entropy-Template| before alerting.
	Threshold float64
	// DeltaP is the measured probability of the bit being 1 minus the
	// template probability; its sign points at the injected ID's bit
	// value (negative → injected bit likely 0).
	DeltaP float64
	// TemplateP is the golden-template probability of the bit being 1,
	// needed to model how strongly an injected identifier would move
	// this bit.
	TemplateP float64
	// Violated reports whether this bit exceeded its threshold.
	Violated bool
}

// Alert is a detector's verdict on one detection window.
type Alert struct {
	// Detector names the emitting detector.
	Detector string
	// WindowStart and WindowEnd delimit the alerted window.
	WindowStart, WindowEnd time.Duration
	// Frames is the number of frames observed in the window.
	Frames int
	// Score is a detector-specific anomaly magnitude (for the bit
	// detector: the largest threshold-normalized deviation).
	Score float64
	// Bits carries the per-bit detail when the detector is bit-level;
	// nil for the baselines.
	Bits []BitDeviation
	// Detail is a human-readable explanation.
	Detail string
}

// ViolatedBits returns the subset of Bits that exceeded their threshold.
func (a Alert) ViolatedBits() []BitDeviation {
	var out []BitDeviation
	for _, b := range a.Bits {
		if b.Violated {
			out = append(out, b)
		}
	}
	return out
}

// String summarizes the alert for logs.
func (a Alert) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s] window %v..%v score=%.3f", a.Detector, a.WindowStart, a.WindowEnd, a.Score)
	if v := a.ViolatedBits(); len(v) > 0 {
		sb.WriteString(" bits=")
		for i, b := range v {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", b.Bit)
		}
	}
	if a.Detail != "" {
		sb.WriteString(" (")
		sb.WriteString(a.Detail)
		sb.WriteString(")")
	}
	return sb.String()
}

// The tumbling-window boundary walk shared by every detector in this
// repository and by the streaming engine's lane. The engine's output is
// bit-identical to a sequential detector only because both sides step
// windows through these exact functions — keep any change to the
// arithmetic here, not at the call sites.

// WindowExpired reports whether a record at time t has moved past the
// window starting at start. The first clause guards the sum against
// int64 wraparound at the far end of the timestamp range: once no
// further window boundary is representable, records accumulate in the
// open window forever.
func WindowExpired(start, t, window time.Duration) bool {
	return start <= math.MaxInt64-window && t >= start+window
}

// NextWindowStart advances the window origin past one closed window,
// jumping arithmetically over any further slots the record at time t
// has already passed — they are empty once the first window closed, and
// a quiet gap (or a fuzzed timestamp) can span more slots than a loop
// should iterate.
//
// Callers guarantee t ≥ start+window (WindowExpired held), but the gap
// t−start itself can exceed int64 when a log jumps from a hugely
// negative to a hugely positive timestamp, so the remainder is taken in
// uint64 space, where two's-complement subtraction yields the exact
// span. The result is the unique boundary congruent to start modulo
// window with t − result < window — identical to repeatedly stepping
// one window at a time, without iterating.
func NextWindowStart(start, t, window time.Duration) time.Duration {
	start += window
	span := uint64(t) - uint64(start)
	return t - time.Duration(span%uint64(window))
}

// WindowEnd returns start + window, saturating at the top of the int64
// range instead of wrapping negative, so alerts built at the timestamp
// boundary keep non-decreasing WindowEnd order (the streaming engine's
// merge relies on it).
func WindowEnd(start, window time.Duration) time.Duration {
	if start > math.MaxInt64-window {
		return math.MaxInt64
	}
	return start + window
}

// Detector is a windowed anomaly detector over a CAN record stream.
//
// Lifecycle: Train on clean traffic once, then Observe records in
// timestamp order; alerts are emitted as windows close. Flush closes the
// final partial window.
type Detector interface {
	// Name identifies the detector in results tables.
	Name() string
	// Train fits the detector on clean (attack-free) training windows.
	Train(windows []trace.Trace) error
	// Observe consumes one record and returns any alerts for windows
	// that closed as a result.
	Observe(rec trace.Record) []Alert
	// Flush closes the current partial window and returns its alerts.
	Flush() []Alert
	// Reset clears streaming state (not the trained model), so the
	// detector can be replayed on a new trace.
	Reset()
	// StateBytes reports the approximate size of the detector's
	// steady-state memory — the paper's storage-cost comparison metric.
	StateBytes() int
}
