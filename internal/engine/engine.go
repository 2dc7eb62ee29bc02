// Package engine is the streaming detection subsystem: it consumes CAN
// record streams from any Source (trace files, the live simulated bus,
// generators), counts and scores every detection window, and emits one
// deterministic, timestamp-ordered alert stream per bus. With a gateway
// and responder installed it is also the prevention subsystem: frames
// are filtered before detection, alerts turn into blocks, and blocks
// drop the rest of the attack mid-stream.
//
// # Architecture
//
//	source ─▶ lane: classify ─▶ [baselines] ─▶ window walk ─▶ count
//	           ▲   [gateway]                       │ boundary
//	           │                                   ▼
//	           └──── blocks ◀── responder ◀── score ─▶ release ─▶ sink
//	                                               │
//	                                  adapt hook, model swap
//
// Every bus runs one lane: a sequential pipeline that, per record,
// classifies it through the gateway, feeds forwarded records to the
// baseline detectors, walks the detection window through detect's
// shared arithmetic (same origin, same step, same skip-ahead over empty
// slots as core.Detector.Observe), and counts the record's identifier
// bits. At a boundary it scores the closed window through
// core.Detector.ScoreWindow — the code path the sequential detector
// uses — hands the alert to the responder, releases the held alerts to
// the sink, runs the adaptation hook and installs the boundary's model.
// An Engine runs one lane over its Source on the caller's goroutine; a
// fleet host (see fleet.go) runs one lane per vehicle through the same
// per-record function. The engine's bit-entropy alert stream is
// therefore bit-identical to a sequential core.Detector fed the same
// records (pinned by TestEngineMatchesSequential).
//
// Optional baseline detectors (Müter, Song) observe the full forwarded
// stream in the lane. Their alerts are held until the next window close
// and released with that window's bit-entropy alert.
//
// # Prevention
//
// Config.Gateway installs a pre-filter in the lane: every record is
// classified in stream order, and only forwarded records reach the
// detectors (dropped ones are counted in Stats and reported through
// Config.OnDrop). Config.Responder closes the loop: every bit-entropy
// alert goes to the responder as soon as its window is scored, and the
// responder's inference puts the top suspects on the gateway blocklist,
// so subsequent attack frames are dropped before they can pollute
// further windows.
//
// Blocking is deterministic. An alert for window W can only exist once W
// has closed, and the lane scores W — and applies the responder's
// blocks — as the record that closes W walks past the boundary, before
// it classifies any later record. The blocked-frame set therefore
// depends only on the record stream: it equals a sequential loop that
// classifies each record, feeds forwarded ones to a core.Detector, and
// hands every alert to the responder before touching the next record
// (pinned by TestEnginePreventionMatchesSequential).
//
// # Deterministic alert ordering
//
// The sink sees alerts in (WindowEnd, detector rank) order: the
// bit-entropy detector ranks first, then Config.Baselines in order.
// Every detector walks windows through detect's shared arithmetic, so
// once it has observed a record at time t it can never again alert on a
// window ending at or before t. The lane feeds each forwarded record to
// the baselines before that record's window walk, so when a record at
// time t closes window W, every alert released with W ends at or before
// t and every alert still to come ends after it. Each release is
// stable-sorted by (WindowEnd, rank), so repeated runs of the same input
// produce the same stream.
package engine

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/fault"
	"canids/internal/gateway"
	"canids/internal/hist"
	"canids/internal/model"
	"canids/internal/response"
	"canids/internal/trace"
)

// Config parameterizes an Engine.
type Config struct {
	// Deprecated: ignored; every bus runs one lane.
	Shards int
	// Core configures the bit-entropy detector.
	Core core.Config
	// Baselines are optional additional detectors run over the full
	// forwarded stream in the lane. They must be trained by the caller,
	// walk tumbling windows through detect's window arithmetic (Müter and
	// Song both do), and are Reset at the start of every Run.
	Baselines []detect.Detector
	// Gateway, when set, is the prevention pre-filter: the lane
	// classifies every record in stream order and only Forward verdicts
	// reach the detectors. Run resets the gateway's streaming rate state
	// and counters; the blocklist persists across runs (a quarantine
	// outlives the stream that triggered it). The lane owns the gateway
	// while Run runs: read its quarantines and counters after Run
	// returns.
	Gateway *gateway.Gateway
	// Responder, when set, closes the detect→infer→block loop: the lane
	// hands it every bit-entropy alert, in window order, as it scores the
	// window, so the resulting blocks land before the next record is
	// classified. A responder error ends the run. Requires Gateway, and
	// the responder must be bound to that same gateway
	// (response.Responder.Gateway).
	Responder *response.Responder
	// OnDrop, when set, is called synchronously from Run's goroutine, in
	// stream order, for every record the gateway drops — the hook the
	// watch mode uses to score prevention against ground truth. It must
	// not call back into the engine.
	OnDrop func(rec trace.Record, v gateway.Verdict)
	// Adapt, when set, is the online-adaptation hook (internal/adapt
	// implements it): Observe sees every forwarded record, and
	// WindowClosed runs at every window boundary — after the closed
	// window has been scored and its alerts handled — so a returned model
	// lands at that exact boundary. The hook must not call back into the
	// engine.
	Adapt AdaptHook
	// Fault, when set, arms deterministic fault injection: the lane
	// consults the fault.EngineFrame seam once per consumed record and
	// fault.EngineSwap once per boundary model install, both scoped by
	// FaultScope. Nil (the default) costs one cached nil check on the hot
	// path.
	Fault *fault.Injector
	// FaultScope tags this engine's seams — the serving layer sets the
	// bus channel, so one spec can target one bus of a fleet.
	FaultScope string
	// Timing arms side-band latency instrumentation. It is
	// observability-only: wall-clock timestamps never influence control
	// flow, so the deterministic alert stream and record/replay
	// bit-identity are untouched. A nil histogram costs one cached nil
	// check per window boundary — nothing on the per-frame path.
	Timing Timing
	// Logger receives structured pipeline events (recovered panics,
	// boundary model installs). Nil discards.
	Logger *slog.Logger
}

// Timing is the engine's set of side-band latency histograms. Every
// field is optional; a nil histogram disables that measurement
// (hist.Histogram's Observe is nil-receiver-safe).
type Timing struct {
	// WindowClose observes window-close latency: the wall-clock time
	// from the lane closing a window to that window being scored and its
	// alert handled. One observation per closed window, so its _count
	// reconciles with the Windows counter at quiescence.
	WindowClose *hist.Histogram
}

// WindowInfo describes one closed detection window to the adaptation
// hook. Start/End delimit the closed window; NextStart is the start of
// the window now opening — the stream position a Swap returned from
// WindowClosed applies from (after a quiet gap it can be later than
// End).
type WindowInfo struct {
	Start, End time.Duration
	NextStart  time.Duration
	// Alerted reports whether the bit-entropy detector alerted on the
	// closed window (baseline detectors do not count: adaptation learns
	// the primary model).
	Alerted bool
	// Dropped is how many records the gateway refused while the window
	// was open (classification precedes the window walk, so a drop is
	// attributed to the window that was open when it was classified;
	// drops before the first window count toward the first).
	Dropped uint64
}

// AdaptHook observes the forwarded stream and proposes model updates at
// window boundaries. Both methods are called from the lane's goroutine,
// in stream order, so a deterministic hook makes the whole adapted run a
// pure function of the record stream.
type AdaptHook interface {
	// Observe is called for every record the gateway forwarded, after
	// the boundary walk — the record belongs to the currently open
	// window.
	Observe(rec trace.Record)
	// WindowClosed is called once per closed window. A non-nil model is
	// validated like Engine.Swap and installed at this boundary: every
	// window from info.NextStart on is scored (and classified) under
	// the returned model.
	WindowClosed(info WindowInfo) *model.Model
}

// DefaultConfig returns an engine at the paper's detector operating
// point.
func DefaultConfig() Config {
	return Config{Core: core.DefaultConfig()}
}

// Stats is a snapshot of a run's progress. Counters are updated with
// atomics, so Stats may be read live from another goroutine while the
// engine runs (the watch mode's metrics ticker does).
type Stats struct {
	// Frames is the number of records consumed from the source,
	// including any the prevention pre-filter dropped.
	Frames uint64
	// Dropped is the number of records the gateway refused to forward;
	// they never reach the detectors.
	Dropped uint64
	// DroppedInjected is the subset of Dropped carrying attack ground
	// truth — the frames prevention actually stopped.
	DroppedInjected uint64
	// Windows is the number of detection windows the engine closed.
	Windows uint64
	// Alerts is the number of alerts emitted to the sink.
	Alerts uint64
	// Lost is the number of records that never reached a bus's engine
	// because it was down — drained while a crashed engine restarted, or
	// after it was marked dead. Always zero for a directly Run engine;
	// only the supervisor's crash-isolation path loses frames, and it
	// counts every one exactly (see Supervisor and BusHealth.Accepted).
	Lost uint64
	// Shed is the number of records the supervisor's per-channel ingest
	// quota refused before they reached the bus — deliberate,
	// deterministic shedding, distinct from Lost's crash fallout. Zero
	// unless a quota is configured.
	Shed uint64
	// LastTime is the virtual timestamp of the newest consumed record.
	LastTime time.Duration
}

// add accumulates o into s; LastTime is the newer of the two.
func (s *Stats) add(o Stats) {
	s.Frames += o.Frames
	s.Dropped += o.Dropped
	s.DroppedInjected += o.DroppedInjected
	s.Windows += o.Windows
	s.Alerts += o.Alerts
	s.Lost += o.Lost
	s.Shed += o.Shed
	s.LastTime = max(s.LastTime, o.LastTime)
}

// Engine is a streaming detection pipeline over one bus. Create with
// New, install a trained template (or Train), then Run it over a
// Source. An engine may be reused for sequential runs but not
// concurrent ones.
type Engine struct {
	cfg Config
	counters
	lane *lane

	// pendingSwap is the queued model, installed by the lane at the next
	// window boundary. Guarded by swapMu; a new Swap replaces an
	// unconsumed one (the latest model wins).
	swapMu      sync.Mutex
	pendingSwap *model.Model
}

// PanicError is a pipeline goroutine's panic converted into an error —
// the engine's fault-isolation boundary. Run returns it instead of
// crashing the process; the supervisor's restart path treats it like
// any other engine failure.
type PanicError struct {
	// Stage names the pipeline stage that panicked: dispatch for an
	// engine's Run; host for the supervisor's own goroutines.
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: panic in %s stage: %v", e.Stage, e.Value)
}

// Swap queues an immutable model (internal/model) for the next window
// boundary. The lane consumes it at the next boundary it crosses, so the
// update lands at a deterministic stream position: every window closing
// before that boundary is scored (and classified) under the old model,
// everything from the boundary on under the new — no frames are dropped
// and no window is torn between templates. All four swap paths —
// operator reload, adaptation promotion, checkpoint restore and the
// initial build — construct the same model.Model and funnel through the
// same boundary install.
//
// Swap validates the model against the engine's configuration up front,
// so a queued swap cannot fail mid-stream; the previous
// queued-but-unapplied model, if any, is replaced (the latest wins).
// Safe to call from any goroutine while Run is in flight; a model
// queued while the engine is idle applies at the first boundary of the
// next run.
func (e *Engine) Swap(m *model.Model) error {
	if err := e.lane.check(m); err != nil {
		return fmt.Errorf("engine: swap: %w", err)
	}
	e.swapMu.Lock()
	e.pendingSwap = m
	e.swapMu.Unlock()
	return nil
}

// checkModel is the one compatibility check every model install passes
// first (engine swaps and fleet swaps alike): m must carry the serving
// side's core configuration, gateway policy exactly when it filters and
// response policy exactly when it responds. A model that passes cannot
// fail the lane's install.
func checkModel(m *model.Model, cfg core.Config, filters, responds bool) error {
	if m == nil {
		return fmt.Errorf("nil model")
	}
	if m.Core() != cfg {
		return fmt.Errorf("model core config %+v does not match %+v", m.Core(), cfg)
	}
	if (m.Gateway() != nil) != filters {
		return fmt.Errorf("model and serving pipeline disagree on gateway policy")
	}
	if (m.Response() != nil) != responds {
		return fmt.Errorf("model and serving pipeline disagree on response policy")
	}
	return nil
}

// boundaryModel implements swapSource with the engine's rule: the
// queued Swap, if any, is consumed — after the adaptation hook's model,
// so an operator reload wins over a promotion in the same boundary.
func (e *Engine) boundaryModel(*model.Model) *model.Model {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	m := e.pendingSwap
	e.pendingSwap = nil
	return m
}

// Model returns the model the engine is currently serving, or nil for
// an engine assembled without one (New + SetTemplate/Train).
func (e *Engine) Model() *model.Model { return e.serving.Load() }

// New creates an engine. The detector starts untrained (windows are
// counted but never alerted); install a template with SetTemplate or
// train with Train before running detection proper.
func New(cfg Config) (*Engine, error) {
	if cfg.Responder != nil {
		if cfg.Gateway == nil {
			return nil, fmt.Errorf("engine: a Responder needs a Gateway to block on")
		}
		if cfg.Responder.Gateway() != cfg.Gateway {
			return nil, fmt.Errorf("engine: Responder is bound to a different gateway; the loop would not close")
		}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	det, err := core.New(cfg.Core)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e := &Engine{cfg: cfg}
	l := newLane(cfg.FaultScope, det, cfg.Gateway, cfg.Responder, &e.counters, e, cfg.Fault, cfg.Logger)
	l.base, l.adapt, l.onDrop, l.closeHist = cfg.Baselines, cfg.Adapt, cfg.OnDrop, cfg.Timing.WindowClose
	e.lane = l
	return e, nil
}

// NewTrained creates an engine with a prebuilt golden template installed.
func NewTrained(cfg Config, tmpl core.Template) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.SetTemplate(tmpl); err != nil {
		return nil, err
	}
	return e, nil
}

// NewFromModel creates an engine serving an immutable model — the
// initial-build leg of the single swap path. cfg's Core is taken from
// the model; its Gateway/Responder must structurally match the model
// (a gateway exactly when the model carries gateway policy, a
// responder exactly when it carries response policy), and the model's
// template and policies are installed through the same validation a
// boundary swap uses.
func NewFromModel(cfg Config, m *model.Model) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("engine: nil model")
	}
	cfg.Core = m.Core()
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.lane.check(m); err != nil {
		return nil, fmt.Errorf("engine: swap: %w", err)
	}
	if err := e.lane.install(m); err != nil {
		return nil, err
	}
	return e, nil
}

// SetTemplate installs a trained golden template.
func (e *Engine) SetTemplate(tmpl core.Template) error {
	return e.lane.det.SetTemplate(tmpl)
}

// Train builds the golden template from clean training windows.
func (e *Engine) Train(windows []trace.Trace) error {
	return e.lane.det.Train(windows)
}

// Stats returns a live snapshot of the current (or last) run.
func (e *Engine) Stats() Stats { return e.stats() }

// Run consumes the source until EOF, a source error, or context
// cancellation, feeding every record through the engine's lane on the
// caller's goroutine and calling sink for every alert in deterministic
// (WindowEnd, detector rank) order. On EOF the final partial window is
// flushed, like the sequential detector's Flush; on error or
// cancellation in-flight window state is discarded. Run returns the
// final statistics.
//
// Run recovers panics: a panic anywhere — including a panicking sink
// or adaptation hook — surfaces as a *PanicError from Run instead of
// crashing the process, which is what lets the multi-bus supervisor
// isolate and restart a crashed bus.
func (e *Engine) Run(ctx context.Context, src Source, sink func(detect.Alert)) (Stats, error) {
	e.reset()
	e.lane.reset(sink)
	for _, b := range e.cfg.Baselines {
		b.Reset()
	}
	if e.cfg.Gateway != nil {
		e.cfg.Gateway.Reset()
	}
	err := e.dispatchGuarded(ctx, src)
	if err == nil {
		err = ctx.Err()
	}
	return e.Stats(), err
}

// dispatchGuarded feeds the source through the lane under panic
// recovery. Sources that block (channels, the supervisor's host feed)
// honor ctx themselves; the periodic check stops a run over an
// in-memory source.
func (e *Engine) dispatchGuarded(ctx context.Context, src Source) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Stage: "dispatch", Value: v, Stack: debug.Stack()}
			e.cfg.Logger.Error("engine pipeline failure", "scope", e.cfg.FaultScope, "err", err)
		}
	}()
	done := ctx.Done()
	for n := 0; ; n++ {
		rec, err := src.Next()
		if err == io.EOF {
			return e.lane.flush()
		}
		if err != nil {
			return fmt.Errorf("engine: source: %w", err)
		}
		if err := e.lane.feed(rec); err != nil {
			return err
		}
		if n%64 == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
	}
}

// Detect runs the engine over an in-memory trace and collects the alerts.
func (e *Engine) Detect(ctx context.Context, tr trace.Trace) ([]detect.Alert, Stats, error) {
	var alerts []detect.Alert
	st, err := e.Run(ctx, NewSliceSource(tr), func(a detect.Alert) { alerts = append(alerts, a) })
	return alerts, st, err
}
