// Package engine is the streaming detection subsystem: it consumes CAN
// record streams from any Source (trace files, the live simulated bus,
// generators), counts and scores every detection window, and emits one
// deterministic, timestamp-ordered alert stream per bus. When its model
// carries gateway and response policy it is also the prevention
// subsystem: frames are filtered before detection, alerts turn into
// blocks, and blocks drop the rest of the attack mid-stream.
//
// # Construction
//
// A bus is built one way: NewFromModel, from an immutable model.Model
// (the golden template with its core configuration, plus optional
// gateway and response policy). The engine builds everything the model
// calls for — a private gateway from the gateway policy, a responder
// bound to it from the response policy — through the same lane
// constructor a fleet vehicle's lane uses (see fleet.go); Config only
// adds what is not model: baselines, hooks, fault seams and
// instrumentation. Engine.Gateway and Engine.Responder expose the built
// pair for reading after Run. Every later model install — Engine.Swap,
// an adaptation promotion, Supervisor.SwapModel — must pass
// model.Compatible against the served model first.
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
// core.ScoreWindow, with the served model's core configuration and
// template — the function the sequential detector's own window close
// calls — hands the alert to the responder, releases the held alerts to
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
// A model's gateway policy installs a pre-filter in the lane: every
// record is classified in stream order, and only forwarded records reach
// the detectors (dropped ones are counted in Stats and reported through
// Config.OnDrop). Its response policy closes the loop: every
// bit-entropy alert goes to the responder as soon as its window is
// scored, and the responder's inference puts the top suspects on the
// gateway blocklist, so subsequent attack frames are dropped before they
// can pollute further windows. A model cannot carry response policy
// without gateway policy (model.New refuses it), and the engine binds
// the responder to the gateway it built, so the loop always closes.
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
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"canids/internal/detect"
	"canids/internal/fault"
	"canids/internal/gateway"
	"canids/internal/hist"
	"canids/internal/model"
	"canids/internal/response"
	"canids/internal/trace"
)

// Config parameterizes an Engine beyond its model: the model decides
// what is detected and enforced (core configuration, template, gateway
// and response policy); Config adds the run's side detectors, hooks,
// fault seams and instrumentation.
type Config struct {
	// Deprecated: ignored; every bus runs one lane.
	Shards int
	// Baselines are optional additional detectors run over the full
	// forwarded stream in the lane. They must be trained by the caller,
	// walk tumbling windows through detect's window arithmetic (Müter and
	// Song both do), and are Reset at the start of every Run.
	Baselines []detect.Detector
	// Deprecated: ignored; the engine builds both from the model.
	Gateway *gateway.Gateway
	// Deprecated: ignored; the engine builds both from the model.
	Responder *response.Responder
	// OnDrop, when set, is called synchronously from Run's goroutine, in
	// stream order, for every record the gateway drops — the hook the
	// watch mode uses to score prevention against ground truth. It must
	// not call back into the engine.
	OnDrop func(rec trace.Record, v gateway.Verdict)
	// OnAction, when set, is called synchronously from Run's goroutine,
	// in stream order, for every action the responder takes — the hook
	// the watch mode prints its BLOCK report from (the responder keeps
	// no history). act.Blocked is the responder's scratch, valid only
	// during the call: copy it to keep it. It must not call back into
	// the engine.
	OnAction func(act response.Action)
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

// Engine is a streaming detection pipeline over one bus. Create it from
// a model with NewFromModel, then Run it over a Source. An engine may be
// reused for sequential runs but not concurrent ones.
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

// NewFromModel creates an engine serving an immutable model — the only
// way to build one. The engine builds everything it runs from the
// model: the window scoring from its core configuration and template,
// and, when the model carries gateway policy, a private gateway (and,
// with response policy, a responder bound to it) whose streaming state
// — rate windows, quarantines — belongs to this bus alone, while the
// policy they read is the model's, shared and lock-free.
func NewFromModel(cfg Config, m *model.Model) (*Engine, error) {
	if m == nil {
		return nil, errors.New("engine: nil model")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	e := &Engine{cfg: cfg}
	l, err := newLane(cfg.FaultScope, m, &e.counters, e, cfg.Fault, cfg.Logger)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	l.base, l.adapt, l.onDrop, l.onAction, l.closeHist = cfg.Baselines, cfg.Adapt, cfg.OnDrop, cfg.OnAction, cfg.Timing.WindowClose
	e.lane = l
	return e, nil
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
// Swap checks the model against the served one with model.Compatible up
// front, so a queued swap cannot fail mid-stream; the previous
// queued-but-unapplied model, if any, is replaced (the latest wins).
// Safe to call from any goroutine while Run is in flight; a model
// queued while the engine is idle applies at the first boundary of the
// next run.
func (e *Engine) Swap(m *model.Model) error {
	if err := model.Compatible(e.Model(), m); err != nil {
		return fmt.Errorf("engine: swap: %w", err)
	}
	e.swapMu.Lock()
	e.pendingSwap = m
	e.swapMu.Unlock()
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

// Model returns the model the engine is currently serving.
func (e *Engine) Model() *model.Model { return e.serving.Load() }

// Gateway returns the gateway the engine built from its model's gateway
// policy, or nil when the model carries none. Run resets its streaming
// rate state and counters; the blocklist persists across runs. The lane
// owns it while Run runs: read its quarantines and counters after Run
// returns.
func (e *Engine) Gateway() *gateway.Gateway { return e.lane.gw }

// Responder returns the responder the engine built from its model's
// response policy, or nil when the model carries none. The lane hands it
// every bit-entropy alert, in window order, as it scores the window, so
// the resulting blocks land before the next record is classified; a
// responder error ends the run. Config.OnAction sees each action as it
// is taken.
func (e *Engine) Responder() *response.Responder { return e.lane.resp }

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
