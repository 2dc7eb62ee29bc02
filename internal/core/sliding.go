package core

import (
	"fmt"
	"time"

	"canids/internal/can"
	"canids/internal/detect"
	"canids/internal/entropy"
	"canids/internal/trace"
)

// SlidingDetectorName identifies the sliding-window variant in alerts.
const SlidingDetectorName = "bit-entropy-sliding"

// SlidingConfig parameterizes the sliding-window detector.
type SlidingConfig struct {
	// Base is the tumbling-window configuration the thresholds come
	// from (α, window length, width, minimum frames).
	Base Config
	// Stride is how often the window is evaluated; it defaults to a
	// tenth of the window. Smaller strides react faster at higher CPU
	// cost.
	Stride time.Duration
	// Cooldown suppresses repeated alerts while a deviation persists;
	// it defaults to the window length.
	Cooldown time.Duration
}

// DefaultSlidingConfig returns the paper's operating point with a 100 ms
// evaluation stride.
func DefaultSlidingConfig() SlidingConfig {
	return SlidingConfig{Base: DefaultConfig()}
}

// SlidingDetector is an extension of the paper's detector: instead of
// scoring disjoint (tumbling) windows, it maintains the bit counters
// incrementally over a sliding time window and evaluates every Stride.
// Detection quality matches the tumbling detector, but the reaction
// time — attack start to first alert — drops from up to one full window
// to roughly one stride past the detectability point.
//
// The extra state is the frame deque needed to expire old identifiers:
// O(frames per window), which is the same order as the trace buffer any
// logger keeps, while the statistical state stays 11 counters.
type SlidingDetector struct {
	cfg      SlidingConfig
	template Template
	trained  bool

	counter *entropy.BitCounter
	// scratchH and scratchP are reusable evaluation vectors, filled in
	// place each stride so clean evaluations allocate nothing.
	scratchH, scratchP []float64
	// window is a ring of the identifiers (and times) currently inside
	// the sliding window.
	times []time.Duration
	ids   []uint32
	head  int

	firstSeen   time.Duration
	lastEval    time.Duration
	haveEval    bool
	suppressTil time.Duration
}

var _ detect.Detector = (*SlidingDetector)(nil)

// NewSliding creates a sliding-window detector.
func NewSliding(cfg SlidingConfig) (*SlidingDetector, error) {
	if err := cfg.Base.validate(); err != nil {
		return nil, err
	}
	if cfg.Stride == 0 {
		cfg.Stride = cfg.Base.Window / 10
	}
	if cfg.Stride <= 0 {
		return nil, fmt.Errorf("core: sliding stride must be positive, got %v", cfg.Stride)
	}
	if cfg.Cooldown == 0 {
		cfg.Cooldown = cfg.Base.Window
	}
	return &SlidingDetector{
		cfg:      cfg,
		counter:  entropy.MustBitCounter(cfg.Base.Width),
		scratchH: make([]float64, cfg.Base.Width),
		scratchP: make([]float64, cfg.Base.Width),
	}, nil
}

// Name implements detect.Detector.
func (d *SlidingDetector) Name() string { return SlidingDetectorName }

// Train implements detect.Detector; the golden template is identical to
// the tumbling detector's.
func (d *SlidingDetector) Train(windows []trace.Trace) error {
	t, err := BuildTemplate(windows, d.cfg.Base.Width, d.cfg.Base.MinFrames)
	if err != nil {
		return err
	}
	d.template = t
	d.trained = true
	return nil
}

// SetTemplate installs a prebuilt golden template.
func (d *SlidingDetector) SetTemplate(t Template) error {
	if t.Width != d.cfg.Base.Width {
		return fmt.Errorf("%w: template %d, detector %d", ErrWidthMismatch, t.Width, d.cfg.Base.Width)
	}
	d.template = t
	d.trained = true
	return nil
}

// threshold is Detector.Threshold under the base configuration.
func (d *SlidingDetector) threshold(i int) float64 { return threshold(d.cfg.Base, d.template, i) }

// Observe implements detect.Detector. Records must arrive in
// non-decreasing timestamp order.
func (d *SlidingDetector) Observe(rec trace.Record) []detect.Alert {
	now := rec.Time
	// Mask to the detector width so out-of-range identifiers cannot
	// desynchronize the incremental counter.
	id := rec.Frame.ID & can.ID(1<<d.cfg.Base.Width-1)
	// Expire identifiers that slid out of the window.
	cutoff := now - d.cfg.Base.Window
	for d.head < len(d.times) && d.times[d.head] <= cutoff {
		d.counter.Remove(can.ID(d.ids[d.head]))
		d.head++
	}
	// Compact the ring occasionally.
	if d.head > 1024 && d.head*2 > len(d.times) {
		n := copy(d.times, d.times[d.head:])
		copy(d.ids, d.ids[d.head:])
		d.times = d.times[:n]
		d.ids = d.ids[:n]
		d.head = 0
	}
	d.times = append(d.times, now)
	d.ids = append(d.ids, uint32(id))
	d.counter.Add(id)

	if !d.haveEval {
		d.haveEval = true
		d.firstSeen = now
		d.lastEval = now
		return nil
	}
	// No verdicts until a full window of traffic has been seen: a
	// partially filled window is statistically incomparable to the
	// template.
	if now < d.firstSeen+d.cfg.Base.Window {
		return nil
	}
	if now-d.lastEval < d.cfg.Stride {
		return nil
	}
	d.lastEval = now
	return d.evaluate(now)
}

// evaluate scores the current window against the template.
func (d *SlidingDetector) evaluate(now time.Duration) []detect.Alert {
	if !d.trained || now < d.suppressTil {
		return nil
	}
	n := int(d.counter.Total())
	if n < d.cfg.Base.MinFrames {
		return nil
	}
	d.counter.MeasureInto(d.scratchH, d.scratchP)
	hs, ps := d.scratchH, d.scratchP
	violated, score := scoreAgainstTemplate(d.cfg.Base.Width, d.threshold, d.template, hs)
	if !violated {
		return nil
	}
	alert := detect.Alert{
		Detector:    SlidingDetectorName,
		WindowStart: now - d.cfg.Base.Window,
		WindowEnd:   now,
		Frames:      n,
		Score:       score,
		Bits:        deviationBits(d.cfg.Base.Width, d.threshold, d.template, hs, ps),
	}
	alert.Detail = fmt.Sprintf("%d/%d bits deviated (sliding)", len(alert.ViolatedBits()), d.cfg.Base.Width)
	d.suppressTil = now + d.cfg.Cooldown
	return []detect.Alert{alert}
}

// Flush implements detect.Detector: evaluates the final window state.
func (d *SlidingDetector) Flush() []detect.Alert {
	if !d.haveEval {
		return nil
	}
	var alerts []detect.Alert
	if at := d.lastEval + d.cfg.Stride; at >= d.firstSeen+d.cfg.Base.Window {
		alerts = d.evaluate(at)
	}
	d.haveEval = false
	return alerts
}

// Reset implements detect.Detector.
func (d *SlidingDetector) Reset() {
	d.counter.Reset()
	d.times = d.times[:0]
	d.ids = d.ids[:0]
	d.head = 0
	d.haveEval = false
	d.firstSeen = 0
	d.lastEval = 0
	d.suppressTil = 0
}

// StateBytes implements detect.Detector: the constant counter/template
// state plus the frame deque (bounded by one window of traffic).
func (d *SlidingDetector) StateBytes() int {
	return d.counter.StateBytes() + 4*8*d.cfg.Base.Width + 12*(len(d.times)-d.head)
}
