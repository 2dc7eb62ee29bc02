package engine

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"canids/internal/detect"
	"canids/internal/trace"
)

// Restart-policy defaults (see SupervisorConfig).
const (
	// DefaultMaxRestarts is the per-bus restart budget per Run.
	DefaultMaxRestarts = 5
	// DefaultRestartBackoff is the first restart delay; consecutive
	// attempts double it, capped at maxRestartBackoff.
	DefaultRestartBackoff = 100 * time.Millisecond
	maxRestartBackoff     = 5 * time.Second
	// DefaultStallAfter is how long a bus may refuse frames (demux
	// blocked on a full feed) before Health reports it stalled.
	DefaultStallAfter = 10 * time.Second
)

// Bus health states reported by Supervisor.Health.
const (
	// BusOK: the engine is live and accepting frames.
	BusOK = "ok"
	// BusStalled: the engine is live but has not accepted a waiting
	// frame within StallAfter — backpressure degenerated into a stall.
	BusStalled = "stalled"
	// BusRestarting: the engine crashed and a restart is in progress
	// (frames arriving now are counted lost).
	BusRestarting = "restarting"
	// BusDead: the restart budget is exhausted; the bus drains its feed
	// (counting every record lost) so the rest of the fleet keeps
	// serving.
	BusDead = "dead"
)

// internal state machine behind the health strings (stalled is derived
// from stallSince, not a stored state).
const (
	stateOK int32 = iota
	stateRestarting
	stateDead
)

// SupervisorConfig parameterizes multi-bus serving.
type SupervisorConfig struct {
	// NewEngine builds the engine for one bus the moment its first
	// record appears. Called from the demux goroutine, once per distinct
	// channel name. Typically every engine shares one trained template
	// and, when prevention is wanted, gets its own gateway + responder
	// (per-bus policy state cannot be shared: each bus has its own rate
	// windows and blocklist).
	NewEngine func(channel string) (*Engine, error)
	// RestartEngine, when set, rebuilds a crashed bus's engine for its
	// attempt-th restart (1-based) — the serving layer uses it to
	// restore from the newest valid checkpoint instead of the base
	// model. Nil falls back to NewEngine. Called from the bus's own
	// supervision goroutine.
	RestartEngine func(channel string, attempt int) (*Engine, error)
	// MaxRestarts is the per-bus restart budget for one Run: after this
	// many failed incarnations the bus is marked dead and its feed is
	// drained (lost frames counted) instead of crashing the fleet. Zero
	// means DefaultMaxRestarts; negative disables restarts entirely.
	MaxRestarts int
	// RestartBackoff is the delay before the first restart; consecutive
	// attempts double it, capped at 5s. Zero means
	// DefaultRestartBackoff. The feed keeps draining during the backoff
	// — a crashed bus exerts no backpressure on its siblings.
	RestartBackoff time.Duration
	// StallAfter is the stall watchdog deadline: a bus with a frame
	// waiting that its engine has not accepted for this long reports
	// BusStalled in Health. Zero means DefaultStallAfter.
	StallAfter time.Duration
	// OnBusError, when set, is called from the failing bus's supervision
	// goroutine after each engine failure, before the restart (or the
	// death) it triggers. It must not call back into the supervisor.
	OnBusError func(channel string, err error, willRestart bool)
	// Logger receives structured supervision events (bus crashes,
	// restarts, dead buses) with per-bus attrs. Nil discards.
	Logger *slog.Logger
	// Tap, when set, observes every demuxed slab exactly as it is about
	// to enter its bus feed — the record/replay capture seam: per-bus
	// content, order and batch boundaries are exactly what the engines
	// will consume. Called from the demux goroutine before the delivery
	// (after it the consumer owns the slab and may recycle it), so the
	// tap must copy what it keeps and stalls the whole demux while it
	// runs. A slab the tap saw may still be dropped by a canceled
	// context before delivery.
	Tap func(channel string, slab []trace.Record)
	// Buffer is the per-bus feed capacity; zero means DefaultBuffer.
	Buffer int
	// QuotaFrames and QuotaWindow, when both set, cap each channel's
	// ingest to QuotaFrames records per QuotaWindow of record time
	// (tumbling, phased from the channel's first record). Excess records
	// are shed deterministically at the demux — before the tap, before
	// the engine — and counted per channel in Stats.Shed and
	// BusHealth.Shed. Applies in both classic and fleet mode.
	QuotaFrames int
	QuotaWindow time.Duration
	// Fleet, when set, multiplexes N vehicle channels over
	// Fleet.Engines host goroutines instead of one full Engine per bus
	// — see FleetConfig. NewEngine/RestartEngine are ignored in fleet
	// mode; every lane serves Fleet.Model.
	Fleet *FleetConfig
}

// Supervisor serves several buses at once: it demultiplexes one mixed
// record stream by Record.Channel and runs an independent engine per
// bus, all sharing the caller's sink. Per-bus alert streams keep the
// engine's determinism guarantees (each bus sees its records in stream
// order through its own pipeline); the interleaving *between* buses in
// the shared sink follows goroutine timing, so order-sensitive
// consumers should key on the channel argument.
//
// Buses are crash-isolated: every engine runs under panic recovery,
// and a failing engine is restarted — via RestartEngine when set —
// with capped exponential backoff while its feed drains, so the other
// buses' alert streams are bit-identical to an undisturbed run. Frames
// that arrive while a bus is down are counted, exactly, in its
// Stats.Lost: at the end of a drained run, Accepted == Frames + Lost
// per bus (BusHealth carries all three). A bus that exhausts its
// restart budget goes dead (Health reports it; /healthz turns 503)
// rather than taking the daemon down.
//
// A Supervisor may be reused for sequential Runs but not concurrent
// ones.
type Supervisor struct {
	cfg SupervisorConfig

	// fleet is non-nil in fleet mode; see fleet.go.
	fleet *fleetRun

	mu      sync.Mutex
	engines map[string]*Engine
	runs    map[string]*busState
}

// NewSupervisor creates a supervisor.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Fleet == nil && cfg.NewEngine == nil {
		return nil, fmt.Errorf("engine: supervisor needs a NewEngine factory")
	}
	if cfg.QuotaFrames > 0 && cfg.QuotaWindow <= 0 {
		return nil, fmt.Errorf("engine: ingest quota needs a positive QuotaWindow")
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultBuffer
	}
	switch {
	case cfg.MaxRestarts == 0:
		cfg.MaxRestarts = DefaultMaxRestarts
	case cfg.MaxRestarts < 0:
		cfg.MaxRestarts = 0
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = DefaultRestartBackoff
	}
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = DefaultStallAfter
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Supervisor{cfg: cfg, engines: make(map[string]*Engine)}
	if fc := cfg.Fleet; fc != nil {
		if fc.Model == nil {
			return nil, fmt.Errorf("engine: fleet mode needs a model")
		}
		if fc.Engines < 1 {
			return nil, fmt.Errorf("engine: fleet mode needs at least 1 engine, got %d", fc.Engines)
		}
		if fc.Vnodes <= 0 {
			fc2 := *fc
			fc2.Vnodes = DefaultVnodes
			fc = &fc2
		}
		if fc.IdleAfter != 0 {
			if fc.IdleAfter < fc.Model.Core().Window {
				return nil, fmt.Errorf("engine: fleet IdleAfter %v shorter than the detection window %v — teardown would lose in-window state", fc.IdleAfter, fc.Model.Core().Window)
			}
			if gp := fc.Model.Gateway(); gp != nil && fc.IdleAfter < gp.RateWindow() {
				return nil, fmt.Errorf("engine: fleet IdleAfter %v shorter than the gateway rate window %v — teardown would lose rate state", fc.IdleAfter, gp.RateWindow())
			}
		}
		s.fleet = &fleetRun{
			cfg:   *fc,
			ring:  newHashRing(fc.Engines, fc.Vnodes),
			lanes: make(map[string]*laneState),
		}
		s.fleet.curModel.Store(fc.Model)
	}
	return s, nil
}

// Channels returns the bus names seen so far, ascending. Safe to call
// while Run is in flight.
func (s *Supervisor) Channels() []string {
	if s.fleet != nil {
		return s.fleet.laneNames()
	}
	s.mu.Lock()
	out := make([]string, 0, len(s.engines))
	for ch := range s.engines {
		out = append(out, ch)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Engine returns the engine serving one bus, or nil before its first
// record. After a restart it is the newest incarnation. Fleet lanes are
// not Engines; in fleet mode this always returns nil.
func (s *Supervisor) Engine(channel string) *Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engines[channel]
}

// Stats returns the per-bus statistics, keyed by channel name. Safe to
// call live: each engine's counters are atomic snapshots. Counters
// accumulate across a bus's restarts within a Run — a restarted bus
// reports its whole history, not just the newest incarnation — and
// Lost carries the frames that arrived while the bus was down.
func (s *Supervisor) Stats() map[string]Stats {
	if s.fleet != nil {
		return s.fleet.stats()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Stats, len(s.engines))
	for ch, e := range s.engines {
		st := e.Stats()
		if r := s.runs[ch]; r != nil {
			r.mu.Lock()
			base := r.base
			base.PerShard = append([]uint64(nil), r.base.PerShard...)
			r.mu.Unlock()
			base.accumulate(st)
			st = base
			st.Lost = r.lost.Load()
			st.Shed = r.quota.shed.Load()
		}
		out[ch] = st
	}
	return out
}

// TotalStats aggregates the per-bus statistics into one fleet-wide
// snapshot. PerShard is omitted (shard layouts differ per engine);
// LastTime is the newest timestamp across buses.
func (s *Supervisor) TotalStats() Stats {
	var total Stats
	for _, st := range s.Stats() {
		total.Frames += st.Frames
		total.Dropped += st.Dropped
		total.DroppedInjected += st.DroppedInjected
		total.Windows += st.Windows
		total.Alerts += st.Alerts
		total.Lost += st.Lost
		total.Shed += st.Shed
		if st.LastTime > total.LastTime {
			total.LastTime = st.LastTime
		}
	}
	return total
}

// BusHealth is one bus's liveness report.
type BusHealth struct {
	// State is one of BusOK, BusStalled, BusRestarting, BusDead.
	State string `json:"state"`
	// Restarts counts engine restarts this Run (failed rebuild attempts
	// included).
	Restarts uint64 `json:"restarts,omitempty"`
	// Accepted counts records the demux delivered into the bus feed;
	// after a drain, Accepted == Stats.Frames + Stats.Lost exactly.
	Accepted uint64 `json:"accepted"`
	// Lost counts records that arrived while the bus was down; the same
	// value is surfaced as Stats.Lost.
	Lost uint64 `json:"lost,omitempty"`
	// Shed counts records the per-channel ingest quota refused at the
	// demux (see SupervisorConfig.QuotaFrames).
	Shed uint64 `json:"shed,omitempty"`
	// Epoch is the generation of the model this bus is serving — the
	// fleet-wide convergence signal after a reload. Zero when the bus's
	// engine was assembled without a model.
	Epoch uint64 `json:"epoch,omitempty"`
	// LastError is the most recent engine failure, if any.
	LastError string `json:"last_error,omitempty"`
	// StalledSeconds is how long the oldest waiting frame has been
	// refused (only set in state BusStalled).
	StalledSeconds float64 `json:"stalled_seconds,omitempty"`
}

// Health reports each bus's liveness. Safe to call while Run is in
// flight; buses appear with their first record.
func (s *Supervisor) Health() map[string]BusHealth {
	if s.fleet != nil {
		return s.fleet.health()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	out := make(map[string]BusHealth, len(s.runs))
	for ch, r := range s.runs {
		h := BusHealth{
			Restarts: r.restarts.Load(),
			Accepted: r.accepted.Load(),
			Lost:     r.lost.Load(),
			Shed:     r.quota.shed.Load(),
		}
		if e := s.engines[ch]; e != nil {
			if m := e.Model(); m != nil {
				h.Epoch = m.Epoch()
			}
		}
		switch r.state.Load() {
		case stateDead:
			h.State = BusDead
		case stateRestarting:
			h.State = BusRestarting
		default:
			h.State = BusOK
			if since := r.stallSince.Load(); since != 0 {
				if stalled := now.Sub(time.Unix(0, since)); stalled >= s.cfg.StallAfter {
					h.State = BusStalled
					h.StalledSeconds = stalled.Seconds()
				}
			}
		}
		r.mu.Lock()
		h.LastError = r.lastErr
		r.mu.Unlock()
		out[ch] = h
	}
	return out
}

// busState is the supervision state of one bus pipeline. The feed
// carries record slabs, not records: the demux moves whole batches per
// channel operation and the engine consumes them through a
// ChanBatchSource, so per-record sends never dominate multi-bus
// serving.
type busState struct {
	feed chan []trace.Record
	done chan struct{}
	err  error // set before done closes

	state    atomic.Int32
	restarts atomic.Uint64
	lost     atomic.Uint64
	accepted atomic.Uint64
	// stallSince is when the demux first blocked sending to this feed
	// (unix nanos; 0 = not blocked). The stall watchdog derives
	// BusStalled from it.
	stallSince atomic.Int64

	// quota is the channel's ingest-quota gate; the demux goroutine
	// admits through it before anything else sees the record.
	quota quotaState

	mu      sync.Mutex
	lastErr string
	base    Stats // accumulated counters of replaced incarnations
}

func (r *busState) noteError(err error) {
	r.mu.Lock()
	r.lastErr = err.Error()
	r.mu.Unlock()
}

func (r *busState) addBase(st Stats) {
	r.mu.Lock()
	r.base.accumulate(st)
	r.mu.Unlock()
}

// Run consumes the mixed source until EOF, a source error, or context
// cancellation, demultiplexing records by channel into one engine per
// bus. The sink receives every alert tagged with its bus; calls are
// serialized across buses, so the sink needs no locking of its own. Run
// returns the final per-bus statistics and the first error any stage
// hit (a bus that crashed but was successfully restarted is not an
// error; a dead bus is). Backpressure propagates: one stalled bus
// pipeline eventually stalls the demux, bounding memory across the
// fleet — but a *crashed* bus does not: its feed drains (counting
// lost frames) while it restarts or after it dies.
//
// Records reach the buses in pooled per-bus sub-slabs (see demux): one
// channel send per bus per incoming slab instead of one per record when
// the source is a BatchSource, single-record slabs otherwise.
func (s *Supervisor) Run(ctx context.Context, src Source, sink func(channel string, a detect.Alert)) (map[string]Stats, error) {
	var sinkMu sync.Mutex
	locked := func(channel string, a detect.Alert) {
		sinkMu.Lock()
		sink(channel, a)
		sinkMu.Unlock()
	}
	// Slab capacity follows the source: batch sources demux into
	// DefaultBatch-sized sub-slabs, per-record sources travel as
	// single-record slabs — so a pool miss under backlog allocates one
	// record's worth, not a 64-slot slab per record, and buffered feeds
	// pin no more memory than the records they hold.
	pool := NewRecordPool(64, DefaultBatch)
	if _, batched := src.(BatchSource); !batched {
		pool = NewRecordPool(256, 1)
	}
	if s.fleet != nil {
		return s.runFleet(ctx, src, pool, locked)
	}
	s.mu.Lock()
	s.runs = make(map[string]*busState)
	s.mu.Unlock()

	open := func(channel string) (*route, error) {
		s.mu.Lock()
		eng := s.engines[channel]
		s.mu.Unlock()
		if eng == nil {
			var err error
			eng, err = s.cfg.NewEngine(channel)
			if err != nil {
				return nil, fmt.Errorf("engine: supervisor: bus %q: %w", channel, err)
			}
			if eng == nil {
				return nil, fmt.Errorf("engine: supervisor: NewEngine(%q) returned nil", channel)
			}
			s.mu.Lock()
			s.engines[channel] = eng
			s.mu.Unlock()
		}
		r := &busState{
			feed: make(chan []trace.Record, s.cfg.Buffer),
			done: make(chan struct{}),
		}
		s.mu.Lock()
		s.runs[channel] = r
		s.mu.Unlock()
		go s.serveBus(ctx, channel, r, eng, locked, pool)
		return &route{quota: &r.quota, deliver: func(slab []trace.Record) bool {
			return s.sendFeed(ctx, r, slab)
		}}, nil
	}
	err := s.demux(ctx, src, pool, open, nil)

	// Only the demux adds buses, so the set is final now. Join in name
	// order, so the reported error does not depend on map iteration.
	s.mu.Lock()
	runs := s.runs
	names := make([]string, 0, len(runs))
	for ch := range runs {
		names = append(names, ch)
	}
	s.mu.Unlock()
	sort.Strings(names)
	for _, ch := range names {
		close(runs[ch].feed)
	}
	for _, ch := range names {
		r := runs[ch]
		<-r.done
		if err == nil && r.err != nil {
			err = fmt.Errorf("bus %q: %w", ch, r.err)
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	return s.Stats(), err
}

// route is one channel's demux state: its quota gate, the sub-slab being
// filled for it, and where a finished sub-slab goes.
type route struct {
	channel string
	quota   *quotaState
	// deliver hands a sub-slab to the channel's consumer, which owns it
	// from then on; false means the context was canceled first.
	deliver func(slab []trace.Record) bool
	slab    []trace.Record
	// lastTime is the time of the channel's latest record, admitted or
	// shed.
	lastTime time.Duration
}

// demux is the supervisor's one demultiplexer, shared by classic and
// fleet mode. It splits every input slab by channel into pooled
// sub-slabs — a per-record source is a stream of one-record slabs —
// after admitting each record through its channel's quota gate. Every
// sub-slab goes through Tap and is delivered before the next input slab
// is read, so batching never delays a record behind an idle source; a
// sub-slab reaching DefaultBatch goes at once. open builds a channel's
// route on its first record. sweep, when set, runs after every input
// slab with the newest record time seen, so whatever it sends lands at
// a deterministic stream position.
func (s *Supervisor) demux(ctx context.Context, src Source, pool *RecordPool,
	open func(channel string) (*route, error), sweep func(newest time.Duration) bool) error {

	bs, batched := src.(BatchSource)
	byName := make(map[string]*route)
	var routes []*route
	var one [1]trace.Record
	newest := time.Duration(math.MinInt64)
	// The last-route cache skips the map lookup while consecutive records
	// share a channel — which is every record, on a single-bus feed.
	var last *route
	for {
		slab := one[:]
		var err error
		if batched {
			slab, err = bs.NextBatch()
		} else {
			one[0], err = src.Next()
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("engine: source: %w", err)
		}
		for _, rec := range slab {
			if last == nil || rec.Channel != last.channel {
				r := byName[rec.Channel]
				if r == nil {
					if r, err = open(rec.Channel); err != nil {
						return err
					}
					r.channel = rec.Channel
					byName[rec.Channel] = r
					routes = append(routes, r)
				}
				last = r
			}
			last.lastTime = rec.Time
			if rec.Time > newest {
				newest = rec.Time
			}
			if !last.quota.admit(rec.Time, s.cfg.QuotaFrames, s.cfg.QuotaWindow) {
				continue
			}
			if last.slab == nil {
				last.slab = pool.Get()
			}
			last.slab = append(last.slab, rec)
			if len(last.slab) >= DefaultBatch && !s.flush(last) {
				return ctx.Err()
			}
		}
		for _, r := range routes {
			if len(r.slab) > 0 && !s.flush(r) {
				return ctx.Err()
			}
		}
		if sweep != nil && !sweep(newest) {
			return ctx.Err()
		}
	}
}

// flush shows r's pending sub-slab to Tap, then delivers it.
func (s *Supervisor) flush(r *route) bool {
	slab := r.slab
	r.slab = nil
	if s.cfg.Tap != nil {
		s.cfg.Tap(r.channel, slab)
	}
	return r.deliver(slab)
}

// serveBus is one bus's supervision loop: run the engine, and on a
// failure (panic or error) restart it from a freshly built engine with
// capped exponential backoff, draining the feed in the meantime so the
// demux never blocks behind a dead stage. A clean feed close ends the
// loop; an exhausted restart budget marks the bus dead and keeps
// draining until the feed closes.
func (s *Supervisor) serveBus(ctx context.Context, channel string, r *busState, eng *Engine,
	sink func(string, detect.Alert), pool *RecordPool) {

	defer close(r.done)
	attempt := 0
	for {
		err := r.runOnce(ctx, eng, channel, sink, pool)
		if err == nil {
			return // feed closed; clean end of stream
		}
		if ctx.Err() != nil {
			r.err = err
			return
		}
		r.noteError(err)
		s.cfg.Logger.Error("bus engine failed", "bus", channel, "attempt", attempt, "err", err)
		if s.cfg.OnBusError != nil {
			s.cfg.OnBusError(channel, err, attempt < s.cfg.MaxRestarts)
		}
		for {
			if attempt >= s.cfg.MaxRestarts {
				r.state.Store(stateDead)
				r.err = fmt.Errorf("dead after %d restarts: %w", attempt, err)
				s.cfg.Logger.Error("bus dead; draining feed", "bus", channel, "restarts", attempt, "err", err)
				s.drainFeed(ctx, r, pool)
				return
			}
			attempt++
			// State first: Health must never pair a restart count that
			// includes this restart with the crashed incarnation's OK.
			r.state.Store(stateRestarting)
			r.restarts.Add(1)
			if closed := s.backoffDrain(ctx, r, restartBackoff(s.cfg.RestartBackoff, attempt), pool); closed {
				// The stream ended while the bus was down; report the
				// crash rather than resurrect an engine with nothing to
				// do.
				r.err = err
				return
			}
			if ctx.Err() != nil {
				r.err = err
				return
			}
			next, ferr := s.rebuild(channel, attempt)
			if ferr != nil {
				err = ferr
				r.noteError(ferr)
				if s.cfg.OnBusError != nil {
					s.cfg.OnBusError(channel, ferr, attempt < s.cfg.MaxRestarts)
				}
				continue
			}
			// Fold the crashed incarnation's counters into the base, then
			// publish the replacement.
			r.addBase(eng.Stats())
			s.mu.Lock()
			s.engines[channel] = next
			s.mu.Unlock()
			eng = next
			r.state.Store(stateOK)
			s.cfg.Logger.Info("bus engine restarted", "bus", channel, "attempt", attempt)
			break
		}
	}
}

// runOnce runs one engine incarnation over the bus feed under panic
// recovery. On failure, records the source had pulled off the feed but
// not yet delivered are counted lost — the engine's Frames counter plus
// this remainder plus the drained slabs is exactly what the demux
// accepted.
func (r *busState) runOnce(ctx context.Context, eng *Engine, channel string,
	sink func(string, detect.Alert), pool *RecordPool) (err error) {

	src := NewChanBatchSource(ctx, r.feed, pool.Put)
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Stage: "bus", Value: v, Stack: debug.Stack()}
		}
		if err != nil {
			r.lost.Add(uint64(src.Leftover()))
		}
	}()
	_, err = eng.Run(ctx, src, func(a detect.Alert) { sink(channel, a) })
	return err
}

// rebuild constructs the next engine incarnation for a crashed bus.
func (s *Supervisor) rebuild(channel string, attempt int) (*Engine, error) {
	var eng *Engine
	var err error
	if s.cfg.RestartEngine != nil {
		eng, err = s.cfg.RestartEngine(channel, attempt)
	} else {
		eng, err = s.cfg.NewEngine(channel)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: supervisor: restart bus %q: %w", channel, err)
	}
	if eng == nil {
		return nil, fmt.Errorf("engine: supervisor: restart factory for %q returned nil", channel)
	}
	return eng, nil
}

// restartBackoff is the delay before the attempt-th restart (1-based):
// base doubling per attempt, capped.
func restartBackoff(base time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d > maxRestartBackoff || d <= 0 {
		d = maxRestartBackoff
	}
	return d
}

// backoffDrain waits out one restart backoff while consuming the feed
// (every drained record is lost and counted). Returns true when the
// feed closed — the stream is over and there is nothing to restart for.
func (s *Supervisor) backoffDrain(ctx context.Context, r *busState, d time.Duration, pool *RecordPool) (feedClosed bool) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		select {
		case slab, ok := <-r.feed:
			if !ok {
				return true
			}
			r.lost.Add(uint64(len(slab)))
			pool.Put(slab)
		case <-timer.C:
			return false
		case <-ctx.Done():
			return false
		}
	}
}

// drainFeed consumes a dead bus's feed until it closes, counting every
// record lost, so the demux never blocks behind the corpse.
func (s *Supervisor) drainFeed(ctx context.Context, r *busState, pool *RecordPool) {
	for {
		select {
		case slab, ok := <-r.feed:
			if !ok {
				return
			}
			r.lost.Add(uint64(len(slab)))
			pool.Put(slab)
		case <-ctx.Done():
			return
		}
	}
}

// sendFeed delivers one slab into a bus feed, tracking acceptance and
// the stall watchdog: a blocked send records when it started waiting,
// so Health can report a bus that stopped consuming. The fast path is
// one non-blocking send.
func (s *Supervisor) sendFeed(ctx context.Context, r *busState, slab []trace.Record) bool {
	n := uint64(len(slab))
	select {
	case r.feed <- slab:
		r.accepted.Add(n)
		return true
	default:
	}
	r.stallSince.CompareAndSwap(0, time.Now().UnixNano())
	if !send(ctx, r.feed, slab) {
		return false
	}
	r.stallSince.Store(0)
	r.accepted.Add(n)
	return true
}
