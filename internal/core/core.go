// Package core implements the paper's contribution: an intrusion
// detection system for CAN based on the binary entropy of each identifier
// bit.
//
// Training builds a golden template from attack-free driving: the
// detector measures the per-bit entropy vector Ĥ = {H(p_1)..H(p_11)} over
// a number of fixed-length windows (the paper averages 35 measurements
// from diverse driving behaviours), stores the per-bit mean, and derives
// a detection threshold per bit from the observed spread:
//
//	Th_i = α · (max(H_i) − min(H_i)),  α ∈ [3,10] (the paper uses 5).
//
// Detection compares each new window's entropy vector to the template bit
// by bit; any bit deviating beyond its threshold raises an alert. The
// alert carries each bit's probability shift Δp, which the inference
// stage (internal/infer) uses to reconstruct the injected identifier.
//
// The detector state is 11 counters plus the template — independent of
// how many identifiers exist on the bus, which is the paper's cost
// advantage over message-level entropy and interval-based IDSs.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"canids/internal/detect"
	"canids/internal/entropy"
	"canids/internal/trace"
)

// Detector name used in alerts and results tables.
const DetectorName = "bit-entropy"

// Errors returned by template building and configuration.
var (
	ErrNoWindows       = errors.New("core: no training windows")
	ErrNotTrained      = errors.New("core: detector is not trained")
	ErrWidthMismatch   = errors.New("core: template width mismatch")
	ErrBadAlpha        = errors.New("core: alpha must be positive")
	ErrBadWindow       = errors.New("core: window must be positive")
	ErrTemplateCorrupt = errors.New("core: template data corrupt")
)

// Config parameterizes the detector.
type Config struct {
	// Alpha is the threshold multiplier α. The paper chooses it from
	// [3,10] empirically and uses 5 for all experiments.
	Alpha float64
	// Window is the detection window length; the paper's system reacts
	// within 1 s.
	Window time.Duration
	// Width is the identifier width in bits (11 for CAN 2.0A).
	Width int
	// MinFrames is the minimum number of frames for a window to be
	// scored; sparser windows are skipped (too noisy to compare).
	MinFrames int
	// MinThreshold is a floor applied to every per-bit threshold,
	// guarding against degenerate zero ranges when training windows are
	// few or perfectly regular.
	MinThreshold float64
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		Alpha:        5,
		Window:       time.Second,
		Width:        11,
		MinFrames:    50,
		MinThreshold: 1e-4,
	}
}

// Validate checks the configuration the same way New does — exposed so
// a configuration restored from persistent storage can be rejected
// before a detector is built from it.
func (c Config) Validate() error {
	if c.Alpha <= 0 {
		return fmt.Errorf("%w: %v", ErrBadAlpha, c.Alpha)
	}
	if c.Window <= 0 {
		return fmt.Errorf("%w: %v", ErrBadWindow, c.Window)
	}
	if c.Width < 1 || c.Width > 32 {
		return fmt.Errorf("core: invalid width %d", c.Width)
	}
	if c.MinFrames < 0 {
		return fmt.Errorf("core: MinFrames must be >= 0, got %d", c.MinFrames)
	}
	if c.MinThreshold < 0 {
		return fmt.Errorf("core: MinThreshold must be >= 0, got %v", c.MinThreshold)
	}
	return nil
}

func (c Config) validate() error { return c.Validate() }

// Template is the golden entropy template learned from clean traffic.
type Template struct {
	// Width is the identifier width in bits.
	Width int `json:"width"`
	// Windows is the number of training measurements averaged.
	Windows int `json:"windows"`
	// MeanH is the per-bit mean binary entropy (the template proper).
	MeanH []float64 `json:"mean_h"`
	// MinH and MaxH are the per-bit extremes over training windows;
	// MaxH[i]-MinH[i] is the paper's range used for thresholds.
	MinH []float64 `json:"min_h"`
	MaxH []float64 `json:"max_h"`
	// MeanP is the per-bit mean probability of a 1, kept for the
	// inference stage (entropy is symmetric in p; direction needs p).
	MeanP []float64 `json:"mean_p"`
}

// Range returns max−min for bit i (1-based).
func (t Template) Range(i int) float64 { return t.MaxH[i-1] - t.MinH[i-1] }

// MaxRange returns the largest per-bit training spread — the stability
// figure the paper quotes for normal driving.
func (t Template) MaxRange() float64 {
	max := 0.0
	for i := 1; i <= t.Width; i++ {
		if r := t.Range(i); r > max {
			max = r
		}
	}
	return max
}

// WindowMeasurement is one training window's statistics.
type WindowMeasurement struct {
	// H is the per-bit entropy vector of the window.
	H []float64
	// P is the per-bit probability vector.
	P []float64
	// Frames is the number of frames in the window.
	Frames int
}

// MeasureWindow computes the entropy and probability vectors of one
// window of records.
func MeasureWindow(w trace.Trace, width int) WindowMeasurement {
	c := entropy.MustBitCounter(width)
	for _, r := range w {
		c.Add(r.Frame.ID)
	}
	h := make([]float64, width)
	p := make([]float64, width)
	c.MeasureInto(h, p)
	return WindowMeasurement{H: h, P: p, Frames: len(w)}
}

// BuildTemplate constructs the golden template from clean training
// windows. Windows with fewer than minFrames frames are ignored.
func BuildTemplate(windows []trace.Trace, width, minFrames int) (Template, error) {
	if width < 1 || width > 32 {
		return Template{}, fmt.Errorf("core: invalid width %d", width)
	}
	t := Template{
		Width: width,
		MeanH: make([]float64, width),
		MinH:  make([]float64, width),
		MaxH:  make([]float64, width),
		MeanP: make([]float64, width),
	}
	for i := range t.MinH {
		t.MinH[i] = math.Inf(1)
		t.MaxH[i] = math.Inf(-1)
	}
	for _, w := range windows {
		if len(w) < minFrames {
			continue
		}
		m := MeasureWindow(w, width)
		t.Windows++
		for i := 0; i < width; i++ {
			t.MeanH[i] += m.H[i]
			t.MeanP[i] += m.P[i]
			if m.H[i] < t.MinH[i] {
				t.MinH[i] = m.H[i]
			}
			if m.H[i] > t.MaxH[i] {
				t.MaxH[i] = m.H[i]
			}
		}
	}
	if t.Windows == 0 {
		return Template{}, ErrNoWindows
	}
	for i := 0; i < width; i++ {
		t.MeanH[i] /= float64(t.Windows)
		t.MeanP[i] /= float64(t.Windows)
	}
	return t, nil
}

// Save writes the template as JSON.
func (t Template) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("core: save template: %w", err)
	}
	return nil
}

// LoadTemplate reads a template saved with Save and validates its shape.
func LoadTemplate(r io.Reader) (Template, error) {
	var t Template
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return Template{}, fmt.Errorf("core: load template: %w", err)
	}
	if err := t.Validate(); err != nil {
		return Template{}, err
	}
	return t, nil
}

// Validate checks the template's shape and value ranges, so a template
// restored from persistent storage (or handed to a hot swap) cannot
// smuggle malformed vectors into the detector: vector lengths must
// match the width, entropies must be finite and within [0, 1] with
// MinH ≤ MaxH per bit, and probabilities must be within [0, 1]. A
// template built by BuildTemplate always passes.
func (t Template) Validate() error {
	if t.Width < 1 || t.Width > 32 ||
		len(t.MeanH) != t.Width || len(t.MinH) != t.Width ||
		len(t.MaxH) != t.Width || len(t.MeanP) != t.Width {
		return fmt.Errorf("%w: width %d, vectors %d/%d/%d/%d",
			ErrTemplateCorrupt, t.Width, len(t.MeanH), len(t.MinH), len(t.MaxH), len(t.MeanP))
	}
	if t.Windows < 1 {
		return fmt.Errorf("%w: %d training windows", ErrTemplateCorrupt, t.Windows)
	}
	inUnit := func(v float64) bool { return v >= 0 && v <= 1 } // false for NaN too
	for i := 0; i < t.Width; i++ {
		if !inUnit(t.MeanH[i]) || !inUnit(t.MinH[i]) || !inUnit(t.MaxH[i]) || !inUnit(t.MeanP[i]) {
			return fmt.Errorf("%w: bit %d values out of [0,1]", ErrTemplateCorrupt, i+1)
		}
		if t.MinH[i] > t.MaxH[i] {
			return fmt.Errorf("%w: bit %d min entropy %v > max %v", ErrTemplateCorrupt, i+1, t.MinH[i], t.MaxH[i])
		}
	}
	return nil
}

// Detector is the streaming bit-entropy IDS. Create with New, train with
// Train (or supply a prebuilt template via SetTemplate), then feed
// records in timestamp order through Observe.
type Detector struct {
	cfg      Config
	template Template
	trained  bool

	counter     *entropy.BitCounter
	windowStart time.Duration
	haveWindow  bool
	windowCount int
	// scratchH and scratchP are reusable per-window measurement vectors;
	// closeWindow fills them in place so the no-alert steady state
	// allocates nothing. They are only valid until the next closed
	// window (see OnWindow).
	scratchH, scratchP []float64
	// onWindow, if set, receives every closed window's measurement —
	// used by experiments to plot entropy trajectories (Fig. 2).
	onWindow func(start time.Duration, m WindowMeasurement)
}

var _ detect.Detector = (*Detector)(nil)

// New creates a detector with the given configuration.
func New(cfg Config) (*Detector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Detector{
		cfg:      cfg,
		counter:  entropy.MustBitCounter(cfg.Width),
		scratchH: make([]float64, cfg.Width),
		scratchP: make([]float64, cfg.Width),
	}, nil
}

// MustNew is New for static configuration; it panics on invalid config.
func MustNew(cfg Config) *Detector {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements detect.Detector.
func (d *Detector) Name() string { return DetectorName }

// Config returns the detector configuration.
func (d *Detector) Config() Config { return d.cfg }

// Train implements detect.Detector by building the golden template from
// clean windows.
func (d *Detector) Train(windows []trace.Trace) error {
	t, err := BuildTemplate(windows, d.cfg.Width, d.cfg.MinFrames)
	if err != nil {
		return err
	}
	d.template = t
	d.trained = true
	return nil
}

// SetTemplate installs a prebuilt golden template.
func (d *Detector) SetTemplate(t Template) error {
	if t.Width != d.cfg.Width {
		return fmt.Errorf("%w: template %d, detector %d", ErrWidthMismatch, t.Width, d.cfg.Width)
	}
	d.template = t
	d.trained = true
	return nil
}

// Template returns the trained golden template.
func (d *Detector) Template() (Template, error) {
	if !d.trained {
		return Template{}, ErrNotTrained
	}
	return d.template, nil
}

// Threshold returns the detection threshold for bit i (1-based):
// α·range(i), floored by MinThreshold.
func (d *Detector) Threshold(i int) float64 { return threshold(d.cfg, d.template, i) }

// threshold is the per-bit threshold rule: α·range(i) of the template,
// floored by cfg.MinThreshold.
func threshold(cfg Config, tmpl Template, i int) float64 {
	th := cfg.Alpha * tmpl.Range(i)
	if th < cfg.MinThreshold {
		th = cfg.MinThreshold
	}
	return th
}

// OnWindow registers a callback receiving every closed window's
// measurement, before scoring. Pass nil to remove. The measurement's H
// and P slices alias the detector's scratch buffers and are only valid
// for the duration of the callback; copy them to retain.
func (d *Detector) OnWindow(fn func(start time.Duration, m WindowMeasurement)) {
	d.onWindow = fn
}

// SeedWindow opens the detection window at the given origin before any
// record is observed — the resume path for a stream whose tumbling
// phase must match its original first record, not the record that
// happened to resume it (the fleet teardown contract's reference loop
// uses it). The caller advances the origin over the silent gap with
// detect.NextWindowStart; the counter starts empty, exactly the state
// an uninterrupted detector reaches once the gap expires its window.
func (d *Detector) SeedWindow(start time.Duration) {
	d.windowStart = start
	d.haveWindow = true
}

// Observe implements detect.Detector. Records must arrive in
// non-decreasing timestamp order.
func (d *Detector) Observe(rec trace.Record) []detect.Alert {
	var alerts []detect.Alert
	if !d.haveWindow {
		d.windowStart = rec.Time
		d.haveWindow = true
	}
	// Close any windows the new record has moved past. A quiet bus can
	// skip several window slots; they contain no frames and are not
	// scored (the walk arithmetic — empty-slot skipping, overflow
	// guard — lives in detect so the streaming engine steps windows
	// identically).
	for detect.WindowExpired(d.windowStart, rec.Time, d.cfg.Window) {
		if a := d.closeWindow(); a != nil {
			alerts = append(alerts, *a)
		}
		d.windowStart = detect.NextWindowStart(d.windowStart, rec.Time, d.cfg.Window)
	}
	d.counter.Add(rec.Frame.ID)
	return alerts
}

// Flush implements detect.Detector: closes the current partial window.
func (d *Detector) Flush() []detect.Alert {
	if !d.haveWindow {
		return nil
	}
	var alerts []detect.Alert
	if a := d.closeWindow(); a != nil {
		alerts = append(alerts, *a)
	}
	d.haveWindow = false
	return alerts
}

// Reset implements detect.Detector.
func (d *Detector) Reset() {
	d.counter.Reset()
	d.haveWindow = false
	d.windowStart = 0
	d.windowCount = 0
}

// StateBytes implements detect.Detector: the constant-size counter state
// plus the template vectors.
func (d *Detector) StateBytes() int {
	return d.counter.StateBytes() + 4*8*d.cfg.Width
}

// WindowsScored returns the number of windows scored so far.
func (d *Detector) WindowsScored() int { return d.windowCount }

// closeWindow scores the finished window and resets the counter. It
// returns nil when the window is empty, too sparse, or clean. The clean
// steady state allocates nothing: measurements land in the detector's
// scratch vectors, and the per-bit detail slice is only built when a
// threshold was actually violated.
func (d *Detector) closeWindow() *detect.Alert {
	n := int(d.counter.Total())
	defer d.counter.Reset()
	if n == 0 {
		return nil
	}
	d.counter.MeasureInto(d.scratchH, d.scratchP)
	hs, ps := d.scratchH, d.scratchP
	if d.onWindow != nil {
		d.onWindow(d.windowStart, WindowMeasurement{H: hs, P: ps, Frames: n})
	}
	if !d.trained || n < d.cfg.MinFrames {
		return nil
	}
	d.windowCount++
	return ScoreWindow(d.cfg, d.template, d.windowStart, hs, ps, n)
}

// ScoreWindow scores one measured window against a trained template
// under cfg: hs and ps are the per-bit entropy and probability vectors
// (length cfg.Width) and frames is the window's frame count. It returns
// nil when the window is too sparse or no bit deviates beyond
// threshold, and the alert otherwise.
//
// It is the tumbling-window detector's one scoring function: the
// Detector's own window close calls it, and so does the streaming
// engine's lane, which walks windows and counts identifier bits itself
// and scores each closed window here with its model's configuration and
// template — so the engine's alert stream is bit-identical to the
// sequential detector's by construction.
func ScoreWindow(cfg Config, tmpl Template, start time.Duration, hs, ps []float64, frames int) *detect.Alert {
	if frames < cfg.MinFrames {
		return nil
	}
	th := func(i int) float64 { return threshold(cfg, tmpl, i) }
	violated, score := scoreAgainstTemplate(cfg.Width, th, tmpl, hs)
	if !violated {
		return nil
	}

	alert := detect.Alert{
		Detector:    DetectorName,
		WindowStart: start,
		WindowEnd:   detect.WindowEnd(start, cfg.Window),
		Frames:      frames,
		Score:       score,
		Bits:        deviationBits(cfg.Width, th, tmpl, hs, ps),
	}
	alert.Detail = fmt.Sprintf("%d/%d bits deviated", len(alert.ViolatedBits()), cfg.Width)
	return &alert
}

// scoreAgainstTemplate is the shared cheap first pass of window
// scoring: whether any bit's entropy deviation exceeds its threshold,
// and the largest threshold-normalized deviation. It allocates nothing,
// so clean windows cost only this scan.
func scoreAgainstTemplate(width int, threshold func(i int) float64, tmpl Template, hs []float64) (violated bool, score float64) {
	for i := 1; i <= width; i++ {
		th := threshold(i)
		dev := math.Abs(hs[i-1] - tmpl.MeanH[i-1])
		if th > 0 {
			if s := dev / th; s > score {
				score = s
			}
		}
		if dev > th {
			violated = true
		}
	}
	return violated, score
}

// deviationBits builds the per-bit alert detail for a violated window —
// the expensive second pass, shared by the tumbling and sliding
// detectors and only reached when a window actually alerts.
func deviationBits(width int, threshold func(i int) float64, tmpl Template, hs, ps []float64) []detect.BitDeviation {
	bits := make([]detect.BitDeviation, 0, width)
	for i := 1; i <= width; i++ {
		th := threshold(i)
		dev := hs[i-1] - tmpl.MeanH[i-1]
		bits = append(bits, detect.BitDeviation{
			Bit:       i,
			Entropy:   hs[i-1],
			Template:  tmpl.MeanH[i-1],
			Threshold: th,
			DeltaP:    ps[i-1] - tmpl.MeanP[i-1],
			TemplateP: tmpl.MeanP[i-1],
			Violated:  math.Abs(dev) > th,
		})
	}
	return bits
}
