// Package engine is the streaming detection subsystem: it consumes CAN
// record streams from any Source (trace files, the live simulated bus,
// generators), shards the per-frame bit counting across parallel
// workers, and scores every closed window in one deterministic,
// timestamp-ordered alert stream. With a gateway and responder installed
// it is also the prevention subsystem: frames are filtered before
// detection, alerts turn into blocks, and blocks drop the rest of the
// attack mid-stream.
//
// # Architecture
//
//	                                   ┌─ shard 0 ─ BitCounter ─┐
//	source ─ [gateway] ─ dispatcher ───┼─ shard 1 ─ ...         │
//	             ▲       [baselines]   └─ shard N ─ BitCounter ─┤
//	             │            ▲                                 │
//	             │            └───── ready at window close ─────┘
//	             │            │
//	             │            ▼ merge counters, score
//	             └─ blocks ◀─ responder ─ sink
//
// The dispatcher reads the source sequentially, tracks the detection
// window exactly like the sequential core.Detector, and routes each
// record to the shard owning its CAN ID (id mod shards). Records travel
// in batches (Config.Batch) to amortize channel operations. Shards only
// count: each keeps one entropy.BitCounter. When a window closes, the
// dispatcher forces the pending batches out, sends every shard a flush
// token and waits for each shard's ready signal; it then merges the
// shard counters — integer counts merge losslessly — resets them in
// place, and scores the window through core.Detector.ScoreWindow, the
// same code path the sequential detector uses. The engine's bit-entropy
// alert stream is therefore bit-identical to a sequential core.Detector
// fed the same records, for any shard count (pinned by
// TestEngineMatchesSequential). An engine runs K+1 goroutines: the
// caller's, which dispatches and scores, and K shards.
//
// Optional baseline detectors (Müter, Song) observe the full forwarded
// stream on the dispatch goroutine: their window state is not
// decomposable by identifier (Müter's Shannon entropy needs the whole ID
// distribution), so they cannot be sharded. Their alerts are held until
// the next window close and released with that window's bit-entropy
// alert.
//
// The shard channels are bounded (Config.Buffer), so slow shards exert
// backpressure on the source instead of growing queues without limit,
// and every stage honors context cancellation for clean shutdown.
//
// # Prevention
//
// Config.Gateway installs a pre-filter on the dispatch path: every
// record is classified in stream order, and only forwarded records reach
// the detectors (dropped ones are counted in Stats and reported through
// Config.OnDrop). Config.Responder closes the loop: every bit-entropy
// alert goes to the responder as soon as its window is scored, and the
// responder's inference puts the top suspects on the gateway blocklist,
// so subsequent attack frames are dropped before they can pollute
// further windows.
//
// Blocking is deterministic. An alert for window W can only exist once W
// has closed, and the dispatcher scores W — and applies the responder's
// blocks — before it classifies the record that closed W or any record
// after it. The blocked-frame set therefore depends only on the record
// stream, never on goroutine timing or shard count: it equals a
// sequential loop that classifies each record, feeds forwarded ones to a
// core.Detector, and hands every alert to the responder before touching
// the next record (pinned by TestEnginePreventionMatchesSequential).
//
// # Deterministic alert ordering
//
// The sink sees alerts in (WindowEnd, detector rank) order: the
// bit-entropy detector ranks first, then Config.Baselines in order.
// Every detector walks windows through detect's shared arithmetic, so
// once it has observed a record at time t it can never again alert on a
// window ending at or before t. The dispatcher feeds each forwarded
// record to the baselines before that record's window walk, so when a
// record at time t closes window W, every alert released with W ends at
// or before t and every alert still to come ends after it. Each release
// is stable-sorted by (WindowEnd, rank), and the whole output is ordered
// by those data-derived keys — never by goroutine scheduling — so
// repeated runs of the same input produce the same stream, at any shard
// count.
package engine

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/entropy"
	"canids/internal/fault"
	"canids/internal/gateway"
	"canids/internal/hist"
	"canids/internal/model"
	"canids/internal/response"
	"canids/internal/trace"
)

// DefaultBuffer is the default capacity of every dispatcher→shard channel.
const DefaultBuffer = 128

// DefaultBatch is the default number of records per channel send on the
// dispatch fan-out.
const DefaultBatch = 64

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of parallel bit-counting workers the frame
	// stream is partitioned across (by CAN ID). Zero means 1.
	Shards int
	// Buffer is the capacity of every dispatcher→shard channel; the
	// bound is what turns a slow shard into backpressure. Zero means
	// DefaultBuffer.
	Buffer int
	// Batch is how many records the dispatcher accumulates per channel
	// send; batching amortizes channel operations without affecting
	// results (window flushes force pending batches out first). Zero
	// means DefaultBatch; 1 sends every record individually.
	Batch int
	// Core configures the bit-entropy detector.
	Core core.Config
	// Baselines are optional additional detectors run over the full
	// forwarded stream on the dispatch goroutine. They must be trained
	// by the caller, walk tumbling windows through detect's window
	// arithmetic (Müter and Song both do), and are Reset at the start of
	// every Run.
	Baselines []detect.Detector
	// Gateway, when set, is the prevention pre-filter: the dispatcher
	// classifies every record in stream order and only Forward verdicts
	// reach the detectors. Run resets the gateway's streaming rate state
	// and counters; the blocklist persists across runs (a quarantine
	// outlives the stream that triggered it).
	Gateway *gateway.Gateway
	// Responder, when set, closes the detect→infer→block loop: the
	// dispatcher hands it every bit-entropy alert, in window order, as
	// it scores the window, so the resulting blocks land before the next
	// record is classified. A responder error ends the run. Requires
	// Gateway, and the responder must be bound to that same gateway
	// (response.Responder.Gateway).
	Responder *response.Responder
	// OnDrop, when set, is called synchronously from the dispatch
	// goroutine, in stream order, for every record the gateway drops —
	// the hook the watch mode uses to score prevention against ground
	// truth. It must not call back into the engine.
	OnDrop func(rec trace.Record, v gateway.Verdict)
	// Adapt, when set, is the online-adaptation hook (internal/adapt
	// implements it): Observe sees every forwarded record on the
	// dispatch goroutine, and WindowClosed runs at every window boundary
	// — after the closed window has been scored and its alerts handled —
	// so a returned model lands at that exact boundary. The hook must not
	// call back into the engine.
	Adapt AdaptHook
	// Fault, when set, arms deterministic fault injection: the dispatch
	// goroutine consults the fault.EngineFrame seam once per consumed
	// record and fault.EngineSwap once per boundary model install, both
	// scoped by FaultScope. Nil (the default) costs one cached nil check
	// on the hot path.
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
	// Logger receives structured pipeline events (fatal stage failures,
	// boundary model installs). Nil discards.
	Logger *slog.Logger
}

// Timing is the engine's set of side-band latency histograms. Every
// field is optional; a nil histogram disables that measurement
// (hist.Histogram's Observe is nil-receiver-safe).
type Timing struct {
	// WindowClose observes window-close pipeline latency: the
	// wall-clock time from the dispatcher sending a window's flush
	// tokens to that window's scoring being done. One observation per
	// closed window, so its _count reconciles with the Windows counter
	// at quiescence.
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
// window boundaries. Both methods are called from the dispatch
// goroutine, in stream order, so a deterministic hook makes the whole
// adapted run a pure function of the record stream.
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

// DefaultConfig returns a single-shard engine at the paper's detector
// operating point.
func DefaultConfig() Config {
	return Config{Shards: 1, Buffer: DefaultBuffer, Batch: DefaultBatch, Core: core.DefaultConfig()}
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
	// PerShard is the number of frames routed to each shard.
	PerShard []uint64
	// LastTime is the virtual timestamp of the newest dispatched record.
	LastTime time.Duration
}

// Forwarded returns the number of records that passed the pre-filter
// (all of them when no gateway is installed).
func (s Stats) Forwarded() uint64 { return s.Frames - s.Dropped }

// Engine is a sharded streaming detection pipeline. Create with New,
// install a trained template (or Train), then Run it over a Source. An
// engine may be reused for sequential runs but not concurrent ones.
type Engine struct {
	cfg Config
	det *core.Detector

	frames          atomic.Uint64
	dropped         atomic.Uint64
	droppedInjected atomic.Uint64
	windows         atomic.Uint64
	alerts          atomic.Uint64
	perShard        []atomic.Uint64
	lastTime        atomic.Int64

	// failMu guards the fatal-error latch: the first recovered panic in
	// any goroutine is recorded here and cancels the run's internal
	// context, so every stage (including a dispatcher waiting for the
	// shards at a window close) unwinds instead of deadlocking behind
	// the dead one.
	failMu    sync.Mutex
	failErr   error
	runCancel context.CancelFunc

	// pendingSwap is the queued model, installed by the dispatcher at
	// the next window boundary. Guarded by swapMu; a new Swap replaces
	// an unconsumed one (the latest model wins).
	swapMu      sync.Mutex
	pendingSwap *model.Model

	// curModel is the model the engine is serving right now: published
	// at construction (NewFromModel) and at every boundary install, read
	// by Model() for checkpointing and the /stats epoch. Nil for engines
	// assembled piecemeal (New + SetTemplate) rather than from a model.
	curModel atomic.Pointer[model.Model]
}

// PanicError is a pipeline goroutine's panic converted into an error —
// the engine's fault-isolation boundary. Run returns it instead of
// crashing the process; the supervisor's restart path treats it like
// any other engine failure.
type PanicError struct {
	// Stage names the pipeline stage that panicked: dispatch or shard
	// inside an engine; host for the supervisor's own goroutines.
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: panic in %s stage: %v", e.Stage, e.Value)
}

// fail records the run's first fatal error and cancels the internal run
// context so every stage unwinds. Safe from any pipeline goroutine.
func (e *Engine) fail(err error) {
	e.failMu.Lock()
	first := e.failErr == nil
	if first {
		e.failErr = err
	}
	cancel := e.runCancel
	e.failMu.Unlock()
	if first {
		e.cfg.Logger.Error("engine pipeline failure", "scope", e.cfg.FaultScope, "err", err)
	}
	if cancel != nil {
		cancel()
	}
}

// guard runs one pipeline stage under panic recovery: a panic becomes
// the run's fatal error instead of crashing the process, and its cancel
// stops a dispatcher waiting on the dead stage.
func (e *Engine) guard(stage string, f func()) {
	defer func() {
		if v := recover(); v != nil {
			e.fail(&PanicError{Stage: stage, Value: v, Stack: debug.Stack()})
		}
	}()
	f()
}

// Swap queues an immutable model (internal/model) for the next window
// boundary. The dispatcher consumes it at the next boundary it crosses,
// so the update lands at a deterministic stream position: every window
// closing before that boundary is scored (and classified) under the old
// model, everything from the boundary on under the new — no frames are
// dropped and no window is torn between templates. All four swap paths
// — operator reload, adaptation promotion, checkpoint restore and the
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
	if err := e.validateModel(m); err != nil {
		return err
	}
	e.swapMu.Lock()
	e.pendingSwap = m
	e.swapMu.Unlock()
	return nil
}

// validateModel checks a model against the engine's configuration, so
// an accepted model can never fail when it is installed mid-stream.
// Shared by Swap (queued models), the dispatcher's adaptation path
// (hook-returned models) and NewFromModel (the initial build). The
// model must match the engine structurally: same core configuration,
// gateway policy exactly when a gateway is installed, response policy
// exactly when a responder is.
func (e *Engine) validateModel(m *model.Model) error {
	if err := checkModel(m, e.cfg.Core, e.cfg.Gateway != nil, e.cfg.Responder != nil); err != nil {
		return fmt.Errorf("engine: swap: %w", err)
	}
	return nil
}

// checkModel is the one compatibility check every model install passes
// first (engine swaps and fleet swaps alike): m must carry the serving
// side's core configuration, gateway policy exactly when it filters and
// response policy exactly when it responds. A model that passes cannot
// fail installModel.
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

// takePendingSwap consumes the queued model, if any.
func (e *Engine) takePendingSwap() *model.Model {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	m := e.pendingSwap
	e.pendingSwap = nil
	return m
}

// Model returns the model the engine is currently serving, or nil for
// an engine assembled without one (New + SetTemplate/Train).
func (e *Engine) Model() *model.Model { return e.curModel.Load() }

// New creates an engine. The detector starts untrained (windows are
// counted but never alerted); install a template with SetTemplate or
// train with Train before running detection proper.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultBuffer
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
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
	return &Engine{
		cfg:      cfg,
		det:      det,
		perShard: make([]atomic.Uint64, cfg.Shards),
	}, nil
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
	if err := e.validateModel(m); err != nil {
		return nil, err
	}
	if err := e.install(m); err != nil {
		return nil, err
	}
	return e, nil
}

// install applies a validated model to the engine's components and
// publishes the model pointer: at construction, and (through
// installAt) at a window boundary of a running stream.
func (e *Engine) install(m *model.Model) error {
	if err := installModel(m, e.det, e.cfg.Gateway, e.cfg.Responder); err != nil {
		return err
	}
	e.curModel.Store(m)
	return nil
}

// installModel applies a checked model to one detection pipeline's
// components: the template into the detector, the policy snapshots into
// the gateway and responder when present. Shared by engines and fleet
// lanes.
func installModel(m *model.Model, det *core.Detector, gw *gateway.Gateway, resp *response.Responder) error {
	if err := det.SetTemplate(m.Template()); err != nil {
		return err
	}
	if gw != nil {
		if err := gw.SetPolicy(m.Gateway()); err != nil {
			return err
		}
	}
	if resp != nil {
		return resp.SetPolicy(*m.Response())
	}
	return nil
}

// SetTemplate installs a trained golden template.
func (e *Engine) SetTemplate(tmpl core.Template) error {
	return e.det.SetTemplate(tmpl)
}

// Train builds the golden template from clean training windows.
func (e *Engine) Train(windows []trace.Trace) error {
	return e.det.Train(windows)
}

// Config returns the engine configuration (with defaults applied).
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a live snapshot of the current (or last) run.
func (e *Engine) Stats() Stats {
	st := Stats{
		Frames:          e.frames.Load(),
		Dropped:         e.dropped.Load(),
		DroppedInjected: e.droppedInjected.Load(),
		Windows:         e.windows.Load(),
		Alerts:          e.alerts.Load(),
		PerShard:        make([]uint64, len(e.perShard)),
		LastTime:        time.Duration(e.lastTime.Load()),
	}
	for i := range e.perShard {
		st.PerShard[i] = e.perShard[i].Load()
	}
	return st
}

// rankedAlert is an alert tagged with its detector's place in the output
// order: 0 for the bit-entropy detector, 1+j for Config.Baselines[j].
type rankedAlert struct {
	rank int
	detect.Alert
}

// RecordPool recycles record-batch slices so a steady-state batched
// fan-out allocates nothing: the engine's dispatcher and shards share
// one, the multi-bus supervisor recycles its demux slabs through one,
// and the serving layer's ingest path feeds slabs from its own.
// Misses (an empty or full free list) fall back to the allocator; the
// pool is bounded, so a stalled consumer can never pin unbounded
// memory. Safe for concurrent use.
type RecordPool struct {
	free chan []trace.Record
	size int
}

// NewRecordPool creates a pool holding up to slots free slices of the
// given capacity.
func NewRecordPool(slots, size int) *RecordPool {
	return &RecordPool{free: make(chan []trace.Record, slots), size: size}
}

// Get returns an empty slice, recycled when one is free.
func (p *RecordPool) Get() []trace.Record {
	select {
	case b := <-p.free:
		return b[:0]
	default:
		return make([]trace.Record, 0, p.size)
	}
}

// Put returns a slice to the pool (dropped when the free list is full).
func (p *RecordPool) Put(b []trace.Record) {
	select {
	case p.free <- b:
	default:
	}
}

// shard is one bit-counting worker's state as the dispatcher sees it:
// the channel carrying record batches (a nil batch is a window-flush
// token) and the counter the worker adds them to. The dispatcher reads
// and resets the counter only after the worker's ready signal and
// before its own next send on in, so the two never touch it at once.
type shard struct {
	in      chan []trace.Record
	counter *entropy.BitCounter
}

// Run consumes the source until EOF, a source error, or context
// cancellation, calling sink for every alert in deterministic
// (WindowEnd, detector rank) order from Run's own goroutine. On EOF the
// final partial window is flushed, like the sequential detector's
// Flush; on error or cancellation in-flight window state is discarded.
// Run returns the final statistics.
//
// Every pipeline stage runs under panic recovery: a panic anywhere —
// including a panicking sink or adaptation hook — surfaces as a
// *PanicError from Run instead of crashing the process, which is what
// lets the multi-bus supervisor isolate and restart a crashed bus.
func (e *Engine) Run(ctx context.Context, src Source, sink func(detect.Alert)) (Stats, error) {
	// The internal run context lets a shard's panic unwind the whole
	// pipeline (fail cancels it); the caller's ctx stays the authority
	// on what error a plain cancellation reports.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	e.failMu.Lock()
	e.failErr = nil
	e.runCancel = cancel
	e.failMu.Unlock()

	e.frames.Store(0)
	e.dropped.Store(0)
	e.droppedInjected.Store(0)
	e.windows.Store(0)
	e.alerts.Store(0)
	for i := range e.perShard {
		e.perShard[i].Store(0)
	}
	e.lastTime.Store(0)
	e.det.Reset()
	for _, b := range e.cfg.Baselines {
		b.Reset()
	}
	if e.cfg.Gateway != nil {
		e.cfg.Gateway.Reset()
	}

	shards := make([]shard, e.cfg.Shards)
	// Each shard signals ready once per flush token, and the dispatcher
	// sends the next tokens only after collecting every signal, so one
	// slot per shard means a shard never blocks on it.
	ready := make(chan struct{}, len(shards))
	pool := NewRecordPool(4*len(shards)+8, e.cfg.Batch)
	var wg sync.WaitGroup
	for i := range shards {
		shards[i] = shard{
			in:      make(chan []trace.Record, e.cfg.Buffer),
			counter: entropy.MustBitCounter(e.cfg.Core.Width),
		}
		wg.Add(1)
		go func(i int, sh shard) {
			defer wg.Done()
			e.guard("shard", func() { e.shardWorker(runCtx, i, sh, ready, pool) })
		}(i, shards[i])
	}

	err := e.dispatchGuarded(runCtx, src, shards, ready, pool, sink)
	for i := range shards {
		close(shards[i].in)
	}
	wg.Wait()
	e.failMu.Lock()
	ferr := e.failErr
	e.runCancel = nil
	e.failMu.Unlock()
	if ferr != nil {
		// A shard's panic outranks the cancellation noise it caused in
		// the dispatcher.
		err = ferr
	}
	if err == nil {
		err = ctx.Err()
	}
	return e.Stats(), err
}

// dispatchGuarded runs dispatch under the same panic recovery as the
// shards, on Run's own goroutine.
func (e *Engine) dispatchGuarded(ctx context.Context, src Source, shards []shard,
	ready <-chan struct{}, pool *RecordPool, sink func(detect.Alert)) (err error) {
	defer func() {
		if v := recover(); v != nil {
			perr := &PanicError{Stage: "dispatch", Value: v, Stack: debug.Stack()}
			e.fail(perr)
			err = perr
		}
	}()
	return e.dispatch(ctx, src, shards, ready, pool, sink)
}

// Detect runs the engine over an in-memory trace and collects the alerts.
func (e *Engine) Detect(ctx context.Context, tr trace.Trace) ([]detect.Alert, Stats, error) {
	var alerts []detect.Alert
	st, err := e.Run(ctx, NewSliceSource(tr), func(a detect.Alert) { alerts = append(alerts, a) })
	return alerts, st, err
}

// send delivers m unless the context is canceled first.
func send[T any](ctx context.Context, ch chan<- T, m T) bool {
	select {
	case ch <- m:
		return true
	case <-ctx.Done():
		return false
	}
}

// dispatch is the engine's sequential loop. It reads the source,
// classifies each record through the gateway (when prevention is on),
// feeds forwarded records to the baseline detectors, maintains the
// detection window over the forwarded stream exactly like
// core.Detector.Observe (same origin, same step, same skip-ahead over
// empty slots), and sends each record, batched, to the shard owning its
// ID.
//
// At every window boundary it, in order: closes the window (see
// closeWindow: score, respond, release), hands the window's verdict to
// the adaptation hook, and installs the model the hook returned, then
// any queued Swap — so an operator reload always wins over a concurrent
// promotion. Only then does it classify the record that crossed the
// boundary, which is the order a sequential loop and a fleet lane use.
//
// Baselines observe a record before its window walk, so the alerts that
// record raises leave with the window it may close; that is what keeps
// the released alerts ahead of every later one (see the package doc).
func (e *Engine) dispatch(ctx context.Context, src Source, shards []shard,
	ready <-chan struct{}, pool *RecordPool, sink func(detect.Alert)) error {

	W := e.cfg.Core.Window
	width := e.cfg.Core.Width
	batch := e.cfg.Batch
	gw := e.cfg.Gateway
	resp := e.cfg.Responder
	adapt := e.cfg.Adapt
	flt, fltScope := e.cfg.Fault, e.cfg.FaultScope
	closeHist := e.cfg.Timing.WindowClose
	base := e.cfg.Baselines
	nShards := uint32(len(shards))
	var winStart time.Duration
	var winDropped uint64
	haveWindow := false

	pend := make([][]trace.Record, len(shards))
	master := entropy.MustBitCounter(width)
	h := make([]float64, width)
	p := make([]float64, width)
	// release holds the alerts raised since the last window close: the
	// baselines' as they observe records, then the closing window's
	// bit-entropy alert.
	var release []rankedAlert

	// closeWindow ends the window that started at start: it forces the
	// pending batches out, sends every shard a flush token and waits for
	// all of them to be ready, merges and resets the shard counters,
	// scores the merged window, hands its alert to the responder (so the
	// blocks are on the gateway before the next record is classified),
	// and releases the held alerts to the sink in (WindowEnd, rank)
	// order. It reports whether the bit-entropy detector alerted.
	closeWindow := func(start time.Duration) (bool, error) {
		for i, b := range pend {
			if len(b) > 0 {
				if !send(ctx, shards[i].in, b) {
					return false, ctx.Err()
				}
				pend[i] = nil
			}
		}
		var wall time.Time
		if closeHist != nil {
			wall = time.Now()
		}
		for i := range shards {
			if !send(ctx, shards[i].in, nil) {
				return false, ctx.Err()
			}
		}
		for range shards {
			select {
			case <-ready:
			case <-ctx.Done():
				return false, ctx.Err()
			}
		}
		for i := range shards {
			master.Merge(shards[i].counter)
			shards[i].counter.Reset()
		}
		e.windows.Add(1)
		alerted := false
		if n := int(master.Total()); n > 0 {
			master.MeasureInto(h, p)
			// Same scoring path as the sequential detector; the merged
			// integer counts make the measurement bit-identical.
			if a := e.det.ScoreWindow(start, h, p, n); a != nil {
				alerted = true
				if resp != nil {
					if _, err := resp.HandleAlert(*a); err != nil {
						return false, fmt.Errorf("engine: response: %w", err)
					}
				}
				release = append(release, rankedAlert{Alert: *a})
			}
		}
		master.Reset()
		if closeHist != nil {
			closeHist.Observe(time.Since(wall))
		}
		// Each baseline's alerts arrive in WindowEnd order, so a stable
		// sort by (WindowEnd, rank) is the merged order.
		slices.SortStableFunc(release, func(a, b rankedAlert) int {
			if c := cmp.Compare(a.WindowEnd, b.WindowEnd); c != 0 {
				return c
			}
			return cmp.Compare(a.rank, b.rank)
		})
		for _, a := range release {
			sink(a.Alert)
			e.alerts.Add(1)
		}
		release = release[:0]
		return alerted, nil
	}

	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("engine: source: %w", err)
		}
		e.frames.Add(1)
		e.lastTime.Store(int64(rec.Time))
		if flt != nil {
			// The seam fires after the count, so a record that triggers a
			// fault is still accounted as consumed — the supervisor's
			// lost-frame reconciliation stays exact across a crash.
			if err := flt.Hit(fault.EngineFrame, fltScope); err != nil {
				return fmt.Errorf("engine: %w", err)
			}
		}
		if gw != nil {
			// The triggering record is classified with the blocklist as
			// of its own window: a sequential loop, too, classifies a
			// record before Observe can close the window behind it.
			if v := gw.Classify(rec); v != gateway.Forward {
				e.dropped.Add(1)
				winDropped++
				if rec.Injected {
					e.droppedInjected.Add(1)
				}
				if e.cfg.OnDrop != nil {
					e.cfg.OnDrop(rec, v)
				}
				continue
			}
		}
		for j, b := range base {
			release = appendRanked(release, 1+j, b.Observe(rec))
		}
		if !haveWindow {
			winStart = rec.Time
			haveWindow = true
		}
		// Identical boundary walk to core.Detector.Observe — both step
		// through detect's shared window arithmetic; bit-identical
		// output depends on it.
		for detect.WindowExpired(winStart, rec.Time, W) {
			alerted, err := closeWindow(winStart)
			if err != nil {
				return err
			}
			closedStart := winStart
			winStart = detect.NextWindowStart(winStart, rec.Time, W)
			if adapt != nil {
				info := WindowInfo{
					Start:     closedStart,
					End:       detect.WindowEnd(closedStart, W),
					NextStart: winStart,
					Alerted:   alerted,
					Dropped:   winDropped,
				}
				winDropped = 0
				if m := adapt.WindowClosed(info); m != nil {
					if err := e.validateModel(m); err != nil {
						return fmt.Errorf("engine: adapt: %w", err)
					}
					if err := e.installAt(m, winStart); err != nil {
						return err
					}
				}
			}
			if m := e.takePendingSwap(); m != nil {
				if err := e.installAt(m, winStart); err != nil {
					return err
				}
			}
		}
		if adapt != nil {
			adapt.Observe(rec)
		}
		s := uint32(rec.Frame.ID) % nShards
		if pend[s] == nil {
			pend[s] = pool.Get()
		}
		pend[s] = append(pend[s], rec)
		if len(pend[s]) >= batch {
			if !send(ctx, shards[s].in, pend[s]) {
				return ctx.Err()
			}
			pend[s] = nil
		}
	}
	if haveWindow {
		// Flush the final partial window, like detect.Detector.Flush.
		for j, b := range base {
			release = appendRanked(release, 1+j, b.Flush())
		}
		if _, err := closeWindow(winStart); err != nil {
			return err
		}
	}
	return nil
}

// installAt installs one validated model at the boundary opening the
// window that starts at from — the single code path every swap source
// funnels through. Every window scored from here on uses its template,
// and every record classified from here on its gateway policy.
// validateModel checked the model against the config, so the install
// cannot fail in practice; the fault.EngineSwap seam is how the
// regression test forces the failure path, which ends the run with an
// error the supervisor's restart path absorbs like any other crash.
func (e *Engine) installAt(m *model.Model, from time.Duration) error {
	err := e.install(m)
	if err == nil && e.cfg.Fault != nil {
		err = e.cfg.Fault.Hit(fault.EngineSwap, e.cfg.FaultScope)
	}
	if err != nil {
		return fmt.Errorf("engine: swap template rejected at install: %w", err)
	}
	e.cfg.Logger.Debug("model installed at window boundary",
		"scope", e.cfg.FaultScope, "epoch", m.Epoch(), "from", from.String())
	return nil
}

// appendRanked appends one detector's alerts, tagged with its rank.
func appendRanked(dst []rankedAlert, rank int, alerts []detect.Alert) []rankedAlert {
	for _, a := range alerts {
		dst = append(dst, rankedAlert{rank: rank, Alert: a})
	}
	return dst
}

// shardWorker counts identifier bits for the records routed to one
// shard. The per-frame path — batched receive, BitCounter.Add, one
// atomic tick per batch — is allocation-free. A flush token only
// signals ready: the dispatcher merges and resets the counter before it
// sends this shard anything else.
func (e *Engine) shardWorker(ctx context.Context, i int, sh shard, ready chan<- struct{}, pool *RecordPool) {
	for {
		select {
		case recs, ok := <-sh.in:
			if !ok {
				return
			}
			if recs == nil {
				ready <- struct{}{}
				continue
			}
			for _, r := range recs {
				sh.counter.Add(r.Frame.ID)
			}
			e.perShard[i].Add(uint64(len(recs)))
			pool.Put(recs)
		case <-ctx.Done():
			return
		}
	}
}
