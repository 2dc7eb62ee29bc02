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

	"canids/internal/can"
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
	// DefaultBuffer is the default capacity of a host feed, in slabs.
	DefaultBuffer = 128
	// DefaultBatch is the default number of records per slab.
	DefaultBatch = 64
)

// Bus health states reported by Supervisor.Health: the state of the
// host serving the bus (see Supervisor).
const (
	// BusOK: the host is live and accepting frames.
	BusOK = "ok"
	// BusStalled: the host is live but has not accepted a waiting
	// frame within StallAfter — backpressure degenerated into a stall.
	BusStalled = "stalled"
	// BusRestarting: the host crashed and a restart is in progress
	// (frames arriving now are counted lost).
	BusRestarting = "restarting"
	// BusDead: the restart budget is exhausted; the host drains its
	// feed (counting every record lost) so the rest of the fleet keeps
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
	// MaxRestarts is the per-host restart budget for one Run (a host is
	// a bus in classic mode, one of Fleet.Engines in fleet mode): after
	// this many failed incarnations the host is marked dead and its feed
	// is drained (lost frames counted) instead of crashing the fleet.
	// Zero means DefaultMaxRestarts; negative disables restarts entirely.
	MaxRestarts int
	// RestartBackoff is the delay before the first restart; consecutive
	// attempts double it, capped at 5s. Zero means
	// DefaultRestartBackoff. The feed keeps draining during the backoff
	// — a crashed bus exerts no backpressure on its siblings.
	RestartBackoff time.Duration
	// StallAfter is the stall watchdog deadline: a host with a frame
	// waiting that it has not accepted for this long reports its buses
	// BusStalled in Health. Zero means DefaultStallAfter.
	StallAfter time.Duration
	// OnBusError, when set, is called from the failing host's
	// supervision goroutine after each failure, before the restart (or
	// the death) it triggers; channel is the bus, or "fleet host i" in
	// fleet mode. It must not call back into the supervisor.
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
	// Buffer is the per-host feed capacity, in slabs; zero means
	// DefaultBuffer.
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
	// Fleet.Engines hosts (rendezvous-hashed by channel name) instead of
	// one full Engine per bus — see FleetConfig. Fleet hosts restart,
	// drain and report stalls under the same policy as classic buses.
	// NewEngine/RestartEngine are ignored in fleet mode; every lane
	// serves Fleet.Model.
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
// The unit it runs is a host: one per bus in classic mode (serving the
// bus's Engine), Fleet.Engines in fleet mode (each serving a lane
// table). Hosts are crash-isolated: every host runs under panic
// recovery, and a failing one is restarted — a classic bus via
// RestartEngine when set — with capped exponential backoff while its
// feed drains, so the other hosts' alert streams are bit-identical to
// an undisturbed run. Frames that arrive while a host is down are
// counted, exactly, in their channel's Stats.Lost: at the end of a
// drained run, Accepted == Frames + Lost per channel (BusHealth carries
// all three). A host that exhausts its restart budget goes dead (Health
// reports its channels dead; /healthz turns 503) rather than taking the
// daemon down.
//
// A Supervisor may be reused for sequential Runs but not concurrent
// ones.
type Supervisor struct {
	cfg SupervisorConfig

	// fleet is non-nil in fleet mode; see fleet.go.
	fleet *fleetRun

	mu      sync.Mutex
	engines map[string]*Engine // classic buses' engines, kept across Runs
	chans   map[string]*chanState
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
		if fc.IdleAfter != 0 {
			if fc.IdleAfter < fc.Model.Core().Window {
				return nil, fmt.Errorf("engine: fleet IdleAfter %v shorter than the detection window %v — teardown would lose in-window state", fc.IdleAfter, fc.Model.Core().Window)
			}
			if gp := fc.Model.Gateway(); gp != nil && fc.IdleAfter < gp.RateWindow() {
				return nil, fmt.Errorf("engine: fleet IdleAfter %v shorter than the gateway rate window %v — teardown would lose rate state", fc.IdleAfter, gp.RateWindow())
			}
		}
		s.fleet = &fleetRun{cfg: *fc, log: cfg.Logger}
		s.fleet.curModel.Store(fc.Model)
	}
	return s, nil
}

// Channels returns the bus names seen so far, ascending. Safe to call
// while Run is in flight.
func (s *Supervisor) Channels() []string {
	s.mu.Lock()
	out := make([]string, 0, len(s.chans))
	for ch := range s.chans {
		out = append(out, ch)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// Stats returns the per-bus statistics, keyed by channel name. Safe to
// call live: every counter is an atomic snapshot. Counters accumulate
// across a host's restarts within a Run — a restarted bus reports its
// whole history, not just the newest incarnation — and Lost carries the
// frames that arrived while the bus's host was down.
func (s *Supervisor) Stats() map[string]Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Stats, len(s.chans))
	for ch, c := range s.chans {
		st := c.stats()
		if e := s.engines[ch]; e != nil {
			st.add(e.Stats())
		}
		st.Lost, st.Shed = c.lost.Load(), c.quota.shed.Load()
		out[ch] = st
	}
	return out
}

// TotalStats aggregates the per-bus statistics into one fleet-wide
// snapshot. LastTime is the newest timestamp across buses.
func (s *Supervisor) TotalStats() Stats {
	var total Stats
	for _, st := range s.Stats() {
		total.add(st)
	}
	return total
}

// BusHealth is one bus's liveness report.
type BusHealth struct {
	// State is one of BusOK, BusStalled, BusRestarting, BusDead — the
	// state of the bus's host — or BusIdle for a torn-down fleet lane
	// on a live host.
	State string `json:"state"`
	// Restarts counts the host's restarts this Run (failed rebuild
	// attempts included).
	Restarts uint64 `json:"restarts,omitempty"`
	// Accepted counts records the demux delivered into the host feed;
	// after a drain, Accepted == Stats.Frames + Stats.Lost exactly.
	Accepted uint64 `json:"accepted"`
	// Lost counts records that arrived while the host was down; the
	// same value is surfaced as Stats.Lost.
	Lost uint64 `json:"lost,omitempty"`
	// Shed counts records the per-channel ingest quota refused at the
	// demux (see SupervisorConfig.QuotaFrames).
	Shed uint64 `json:"shed,omitempty"`
	// Epoch is the generation of the model this bus is serving — the
	// fleet-wide convergence signal after a reload. Zero when the bus's
	// engine was assembled without a model.
	Epoch uint64 `json:"epoch,omitempty"`
	// LastError is the host's most recent failure, if any.
	LastError string `json:"last_error,omitempty"`
	// StalledSeconds is how long the oldest waiting frame has been
	// refused (only set in state BusStalled).
	StalledSeconds float64 `json:"stalled_seconds,omitempty"`
}

// Health reports each bus's liveness. Safe to call while Run is in
// flight; buses appear with their first record.
func (s *Supervisor) Health() map[string]BusHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	out := make(map[string]BusHealth, len(s.chans))
	for ch, c := range s.chans {
		h := c.host
		bh := BusHealth{
			State:    BusOK,
			Restarts: h.restarts.Load(),
			Accepted: c.accepted.Load(),
			Lost:     c.lost.Load(),
			Shed:     c.quota.shed.Load(),
		}
		m := c.serving.Load()
		if e := s.engines[ch]; e != nil {
			m = e.Model()
		}
		if m != nil {
			bh.Epoch = m.Epoch()
		}
		switch h.state.Load() {
		case stateDead:
			bh.State = BusDead
		case stateRestarting:
			bh.State = BusRestarting
		default:
			if c.idle.Load() {
				bh.State = BusIdle
			}
			if since := h.stallSince.Load(); since != 0 {
				if stalled := now.Sub(time.Unix(0, since)); stalled >= s.cfg.StallAfter {
					bh.State = BusStalled
					bh.StalledSeconds = stalled.Seconds()
				}
			}
		}
		h.mu.Lock()
		bh.LastError = h.lastErr
		h.mu.Unlock()
		out[ch] = bh
	}
	return out
}

// RecordPool recycles record-batch slices so a steady-state batched
// fan-out allocates nothing: the multi-bus supervisor recycles its
// demux slabs through one, and the serving layer's ingest path feeds
// slabs from its own. Its bound is the number of slabs its consumers
// can hold in flight (channel capacity plus the slab in hand), raised
// with Reserve as consumers start, so a steady stream misses only
// while the pool warms up. A miss (an empty free list) falls back to the allocator;
// a Put past the bound drops the slice, so the pool never pins more
// memory than its consumers' peak. Safe for concurrent use.
type RecordPool struct {
	mu   sync.Mutex
	free [][]trace.Record
	max  int
	size int
}

// NewRecordPool creates a pool holding up to slots free slices of the
// given capacity. It allocates no slices up front.
func NewRecordPool(slots, size int) *RecordPool {
	return &RecordPool{max: slots, size: size}
}

// Reserve raises the pool's bound by n slots, for a consumer that can
// hold n more slabs in flight.
func (p *RecordPool) Reserve(n int) {
	p.mu.Lock()
	p.max += n
	p.mu.Unlock()
}

// Get returns an empty slice, recycled when one is free.
func (p *RecordPool) Get() []trace.Record {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b[:0]
	}
	p.mu.Unlock()
	return make([]trace.Record, 0, p.size)
}

// Put returns a slice to the pool (dropped when the free list is full).
func (p *RecordPool) Put(b []trace.Record) {
	p.mu.Lock()
	if len(p.free) < p.max {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// chanState is one channel's record — the only place its fate is
// counted. The demux owns the routing fields; accepted, lost and the
// quota's shed count are read live by Stats and Health. The counters
// below them are a fleet lane's (written by its host), or in classic
// mode the totals of the bus's replaced Engine incarnations; the
// teardown residue is a fleet lane's.
type chanState struct {
	name string
	host *host

	// Demux-owned routing state: the quota gate every record is
	// admitted through, the sub-slab being filled, the time of the
	// latest record (admitted or shed), and whether an idle teardown was
	// sent with nothing delivered since.
	quota    quotaState
	slab     []trace.Record
	lastSeen time.Duration
	down     bool

	accepted atomic.Uint64
	lost     atomic.Uint64

	counters
	idle atomic.Bool

	// Teardown residue: the tumbling phases and quarantine list a respun
	// lane resumes from. Host-goroutine owned; never read while live.
	winStart   time.Duration
	haveWindow bool
	rateStart  time.Duration
	haveRate   bool
	quar       map[can.ID]time.Duration
}

// fold adds a replaced engine incarnation's counters to the channel's.
func (c *chanState) fold(st Stats) {
	c.frames.Add(st.Frames)
	c.dropped.Add(st.Dropped)
	c.droppedInjected.Add(st.DroppedInjected)
	c.windows.Add(st.Windows)
	c.alerts.Add(st.Alerts)
	if int64(st.LastTime) > c.lastTime.Load() {
		c.lastTime.Store(int64(st.LastTime))
	}
}

// host is the one unit the supervisor runs: a goroutine serving a feed
// of single-channel record slabs under panic recovery, the restart
// ladder and the stall watchdog. The feed carries slabs, not records,
// so the demux moves whole batches per channel operation.
type host struct {
	name  string // for logs and OnBusError: the bus, or "fleet host i"
	label string // how Run's error names the host
	feed  chan hostMsg
	done  chan struct{}
	err   error // set before done closes

	// serve runs one incarnation over the feed until it closes (nil) or
	// fails; restart, when set, prepares the attempt-th (1-based)
	// replacement. Both run on the host's goroutine.
	serve   func(in *hostFeed) error
	restart func(attempt int) error

	state    atomic.Int32
	restarts atomic.Uint64
	// stallSince is when the demux first blocked sending to this feed
	// (unix nanos; 0 = not blocked). The stall watchdog derives
	// BusStalled from it.
	stallSince atomic.Int64

	mu      sync.Mutex
	lastErr string
}

func (h *host) noteError(err error) {
	h.mu.Lock()
	h.lastErr = err.Error()
	h.mu.Unlock()
}

// hostMsg is one demux→host delivery: a single-channel record slab, or
// (recs nil) a command to tear the channel's idle fleet lane down.
type hostMsg struct {
	c    *chanState
	recs []trace.Record
}

// hostFeed is one host incarnation's reader over its feed — message by
// message for a lane table, record by record (as a Source) for an
// Engine. It tracks the message in flight, so a failed incarnation's
// unconsumed records are counted lost against their channel, and
// recycles each slab once consumed.
type hostFeed struct {
	ctx  context.Context
	feed <-chan hostMsg
	pool *RecordPool
	cur  hostMsg // message in flight
	next int     // records of cur already consumed
}

// take recycles the message in flight and returns the next one.
func (f *hostFeed) take() (hostMsg, error) {
	if f.cur.recs != nil {
		f.pool.Put(f.cur.recs)
	}
	f.cur, f.next = hostMsg{}, 0
	select {
	case m, ok := <-f.feed:
		if !ok {
			return m, io.EOF
		}
		f.cur = m
		return m, nil
	case <-f.ctx.Done():
		return hostMsg{}, f.ctx.Err()
	}
}

// Next implements Source over the feed's slabs.
func (f *hostFeed) Next() (trace.Record, error) {
	for f.next >= len(f.cur.recs) {
		if _, err := f.take(); err != nil {
			return trace.Record{}, err
		}
	}
	r := f.cur.recs[f.next]
	f.next++
	return r, nil
}

// Run consumes the mixed source until EOF, a source error, or context
// cancellation, demultiplexing records by channel to their hosts. The
// sink receives every alert tagged with its bus; calls are serialized
// across hosts, so the sink needs no locking of its own, and a sink
// that panics fails only the host it panicked on. Run returns the final
// per-bus statistics and the first error any stage hit (a host that
// crashed but was successfully restarted is not an error; a dead one
// is). Backpressure propagates: one stalled host eventually stalls the
// demux, bounding memory across the fleet — but a *crashed* host does
// not: its feed drains (counting lost frames) while it restarts or
// after it dies.
//
// Records reach the hosts in pooled per-channel sub-slabs (see demux):
// one channel send per bus per incoming slab instead of one per record
// when the source is a BatchSource, single-record slabs otherwise.
func (s *Supervisor) Run(ctx context.Context, src Source, sink func(channel string, a detect.Alert)) (map[string]Stats, error) {
	var sinkMu sync.Mutex
	locked := func(channel string, a detect.Alert) {
		sinkMu.Lock()
		defer sinkMu.Unlock()
		sink(channel, a)
	}
	// Slab capacity follows the source: batch sources demux into
	// DefaultBatch-sized sub-slabs, per-record sources travel as
	// single-record slabs — so a pool miss under backlog allocates one
	// record's worth, not a 64-slot slab per record, and buffered feeds
	// pin no more memory than the records they hold. The pool's bound
	// grows with the hosts and channels that hold its slabs.
	pool := NewRecordPool(0, DefaultBatch)
	if _, batched := src.(BatchSource); !batched {
		pool = NewRecordPool(0, 1)
	}
	s.mu.Lock()
	s.chans = make(map[string]*chanState)
	s.mu.Unlock()

	var hosts []*host
	start := func(h *host) *host {
		h.feed, h.done = make(chan hostMsg, s.cfg.Buffer), make(chan struct{})
		// A host holds up to Buffer slabs queued and one in hand.
		pool.Reserve(s.cfg.Buffer + 1)
		hosts = append(hosts, h)
		go s.serveHost(ctx, h, pool)
		return h
	}
	var open func(channel string) (*chanState, error)
	var idleAfter time.Duration
	if f := s.fleet; f != nil {
		for i := 0; i < f.cfg.Engines; i++ {
			name := fmt.Sprintf("fleet host %d", i)
			start(&host{name: name, label: name, serve: func(in *hostFeed) error {
				return f.serveLanes(in, locked)
			}})
		}
		open = func(channel string) (*chanState, error) {
			return &chanState{name: channel, host: hosts[hostOf(channel, len(hosts))]}, nil
		}
		idleAfter = f.cfg.IdleAfter
	} else {
		open = func(channel string) (*chanState, error) {
			eng, err := s.busEngine(channel)
			if err != nil {
				return nil, err
			}
			c := &chanState{name: channel}
			c.host = start(&host{
				name:  channel,
				label: fmt.Sprintf("bus %q", channel),
				serve: func(in *hostFeed) error {
					_, err := eng.Run(ctx, in, func(a detect.Alert) { locked(channel, a) })
					return err
				},
				restart: func(attempt int) error {
					next, err := s.rebuild(channel, attempt)
					if err != nil {
						return err
					}
					// Fold the crashed incarnation's counters in and
					// publish the replacement in one step, so Stats never
					// counts either twice.
					s.mu.Lock()
					c.fold(eng.Stats())
					s.engines[channel] = next
					s.mu.Unlock()
					eng = next
					return nil
				},
			})
			return c, nil
		}
	}
	err := s.demux(ctx, src, pool, open, idleAfter)

	// Only the demux starts hosts, so the set is final now. Join in
	// start order, so the reported error is deterministic.
	for _, h := range hosts {
		close(h.feed)
	}
	for _, h := range hosts {
		<-h.done
		if err == nil && h.err != nil {
			err = fmt.Errorf("%s: %w", h.label, h.err)
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	return s.Stats(), err
}

// busEngine returns a classic bus's engine: the one kept from an
// earlier Run, or a new one from NewEngine.
func (s *Supervisor) busEngine(channel string) (*Engine, error) {
	s.mu.Lock()
	eng := s.engines[channel]
	s.mu.Unlock()
	if eng != nil {
		return eng, nil
	}
	eng, err := s.cfg.NewEngine(channel)
	if err != nil {
		return nil, fmt.Errorf("engine: supervisor: bus %q: %w", channel, err)
	}
	if eng == nil {
		return nil, fmt.Errorf("engine: supervisor: NewEngine(%q) returned nil", channel)
	}
	s.mu.Lock()
	s.engines[channel] = eng
	s.mu.Unlock()
	return eng, nil
}

// demux is the supervisor's one demultiplexer, shared by classic and
// fleet mode. It splits every input slab by channel into pooled
// sub-slabs — a per-record source is a stream of one-record slabs —
// after admitting each record through its channel's quota gate. Every
// sub-slab goes through Tap and is delivered before the next input slab
// is read, so batching never delays a record behind an idle source; a
// sub-slab reaching DefaultBatch goes at once. open builds a channel's
// record on its first record. With idleAfter set (fleet mode), every
// input slab ends with a sweep that sends a teardown to each channel
// silent for idleAfter before the newest record time seen, so
// teardowns land at deterministic stream positions.
func (s *Supervisor) demux(ctx context.Context, src Source, pool *RecordPool,
	open func(channel string) (*chanState, error), idleAfter time.Duration) error {

	bs, batched := src.(BatchSource)
	byName := make(map[string]*chanState)
	var chans []*chanState
	var one [1]trace.Record
	newest := time.Duration(math.MinInt64)
	// The last-channel cache skips the map lookup while consecutive
	// records share a channel — which is every record, on a single-bus
	// feed.
	var last *chanState
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
			if last == nil || rec.Channel != last.name {
				c := byName[rec.Channel]
				if c == nil {
					if c, err = open(rec.Channel); err != nil {
						return err
					}
					pool.Reserve(1) // the channel's sub-slab in progress
					byName[rec.Channel] = c
					chans = append(chans, c)
					s.mu.Lock()
					s.chans[rec.Channel] = c
					s.mu.Unlock()
				}
				last = c
			}
			last.lastSeen = rec.Time
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
			if len(last.slab) >= DefaultBatch && !s.flush(ctx, last) {
				return ctx.Err()
			}
		}
		for _, c := range chans {
			if len(c.slab) > 0 && !s.flush(ctx, c) {
				return ctx.Err()
			}
		}
		if idleAfter <= 0 {
			continue
		}
		for _, c := range chans {
			if c.down || !detect.WindowExpired(c.lastSeen, newest, idleAfter) {
				continue
			}
			if !s.sendFeed(ctx, c, nil) {
				return ctx.Err()
			}
			c.down = true
		}
	}
}

// flush shows c's pending sub-slab to Tap, then delivers it.
func (s *Supervisor) flush(ctx context.Context, c *chanState) bool {
	slab := c.slab
	c.slab, c.down = nil, false
	if s.cfg.Tap != nil {
		s.cfg.Tap(c.name, slab)
	}
	return s.sendFeed(ctx, c, slab)
}

// sendFeed delivers one of c's slabs (nil: a teardown) into its host's
// feed, counting acceptance at delivery and feeding the stall watchdog:
// a blocked send records when it started waiting, so Health can report
// a host that stopped consuming. The fast path is one non-blocking
// send. False means the context was canceled first.
func (s *Supervisor) sendFeed(ctx context.Context, c *chanState, slab []trace.Record) bool {
	h, m := c.host, hostMsg{c: c, recs: slab}
	select {
	case h.feed <- m:
		c.accepted.Add(uint64(len(slab)))
		return true
	default:
	}
	h.stallSince.CompareAndSwap(0, time.Now().UnixNano())
	select {
	case h.feed <- m:
	case <-ctx.Done():
		return false
	}
	h.stallSince.Store(0)
	c.accepted.Add(uint64(len(slab)))
	return true
}

// serveHost is one host's supervision loop: serve the feed, and on a
// failure (panic or error) restart with capped exponential backoff,
// draining the feed in the meantime so the demux never blocks behind a
// dead stage. A clean feed close ends the loop; an exhausted restart
// budget marks the host dead and keeps draining until the feed closes.
func (s *Supervisor) serveHost(ctx context.Context, h *host, pool *RecordPool) {
	defer close(h.done)
	attempt := 0
	for {
		err := h.runOnce(ctx, pool)
		if err == nil {
			return // feed closed; clean end of stream
		}
		if ctx.Err() != nil {
			h.err = err
			return
		}
		h.noteError(err)
		s.cfg.Logger.Error("bus engine failed", "bus", h.name, "attempt", attempt, "err", err)
		if s.cfg.OnBusError != nil {
			s.cfg.OnBusError(h.name, err, attempt < s.cfg.MaxRestarts)
		}
		for {
			if attempt >= s.cfg.MaxRestarts {
				h.state.Store(stateDead)
				h.err = fmt.Errorf("dead after %d restarts: %w", attempt, err)
				s.cfg.Logger.Error("bus dead; draining feed", "bus", h.name, "restarts", attempt, "err", err)
				drain(ctx, h, nil, pool)
				return
			}
			attempt++
			// State first: Health must never pair a restart count that
			// includes this restart with the crashed incarnation's OK.
			h.state.Store(stateRestarting)
			h.restarts.Add(1)
			timer := time.NewTimer(restartBackoff(s.cfg.RestartBackoff, attempt))
			closed := drain(ctx, h, timer.C, pool)
			timer.Stop()
			if closed || ctx.Err() != nil {
				// The stream ended while the host was down; report the
				// crash rather than resurrect it with nothing to do.
				h.err = err
				return
			}
			if h.restart != nil {
				if ferr := h.restart(attempt); ferr != nil {
					err = ferr
					h.noteError(ferr)
					if s.cfg.OnBusError != nil {
						s.cfg.OnBusError(h.name, ferr, attempt < s.cfg.MaxRestarts)
					}
					continue
				}
			}
			h.state.Store(stateOK)
			s.cfg.Logger.Info("bus engine restarted", "bus", h.name, "attempt", attempt)
			break
		}
	}
}

// runOnce runs one incarnation over the host feed under panic recovery.
// On failure, the records the incarnation had taken off the feed but
// not yet consumed are counted lost — so every accepted record is
// either in some incarnation's Frames or in Lost.
func (h *host) runOnce(ctx context.Context, pool *RecordPool) (err error) {
	in := &hostFeed{ctx: ctx, feed: h.feed, pool: pool}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Stage: "host", Value: v, Stack: debug.Stack()}
		}
		if err != nil && in.cur.c != nil {
			in.cur.c.lost.Add(uint64(len(in.cur.recs) - in.next))
		}
	}()
	return h.serve(in)
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

// drain consumes a down host's feed, counting every record lost
// against its channel, until the feed closes (true), wait fires, or the
// context ends. A dead host drains with a nil wait — until the feed
// closes — so the demux never blocks behind the corpse.
func drain(ctx context.Context, h *host, wait <-chan time.Time, pool *RecordPool) (feedClosed bool) {
	for {
		select {
		case m, ok := <-h.feed:
			if !ok {
				return true
			}
			if m.recs != nil {
				m.c.lost.Add(uint64(len(m.recs)))
				pool.Put(m.recs)
			}
		case <-wait:
			return false
		case <-ctx.Done():
			return false
		}
	}
}
