// Fleet mode: many vehicles multiplexed over a few engine hosts.
//
// Classic supervision gives every bus its own full Engine — dispatcher,
// shard workers, merger, buffered channels. That is the right shape for
// a handful of high-rate buses, but it makes the per-vehicle marginal
// cost a whole pipeline, which is what caps how many vehicles one
// serving node can hold. Fleet mode inverts the layout: K host
// goroutines serve N vehicles (N >> K), each vehicle as a *lane* — a
// sequential core.Detector, a gateway sharing the fleet's immutable
// policy snapshot, and a responder. A lane's marginal state is the
// detector's bit counters plus its quarantine list; everything big (the
// template, the whitelist, the budget table) lives once in the shared
// model.Model.
//
// Determinism is preserved lane by lane: a lane walks windows through
// the same detect arithmetic as the engine's dispatcher and scores them
// through the same core.Detector the window merger uses, so a vehicle's
// alert stream is bit-identical to a dedicated engine fed the same
// records (TestFleetMatchesDedicatedEngines) — the engine's own
// equivalence to the sequential detector closes the triangle.
//
// Vehicles are assigned to hosts by consistent hashing (an FNV-64 ring
// with virtual nodes), so the channel→host mapping is a pure function
// of the channel name and the host count: re-running a capture, or
// replaying an incident, lands every vehicle on the same host. Lanes
// spin up lazily on a vehicle's first frame and are torn down after
// IdleAfter of stream-time silence; teardown flushes the open window
// and keeps a small residue (window phase, rate phase, quarantines,
// counters) so a respun lane continues exactly where the old one
// stopped. Per-vehicle ingest quotas are enforced at the demux on
// record timestamps — deterministic shedding, not wall-clock — and
// surfaced per channel in Stats and Health.
//
// Fleet v1 trades generality for density: no per-lane adaptation, no
// baselines, no crash restarts (a host failure marks its lanes dead,
// the other hosts keep serving), and one model for the whole fleet.
// The clocks across vehicles are assumed comparable: idle teardown is
// judged against the newest timestamp seen anywhere, so a vehicle
// whose clock lags far behind the fleet can have its open window
// flushed early — deterministically, but not identically to a
// never-torn-down lane.
package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/gateway"
	"canids/internal/model"
	"canids/internal/response"
	"canids/internal/trace"
)

// DefaultVnodes is the default number of virtual nodes per host on the
// consistent-hash ring; enough to spread ~100 vehicles over a few hosts
// within a few percent of even.
const DefaultVnodes = 16

// BusIdle is the Health state of a fleet lane torn down for idleness;
// its next frame respins it.
const BusIdle = "idle"

// FleetConfig switches a Supervisor into fleet mode.
type FleetConfig struct {
	// Engines is the number of host goroutines vehicles are multiplexed
	// over (K in "N vehicles over K engines"). At least 1.
	Engines int
	// Model is the immutable model every lane serves — required. Swap
	// it fleet-wide with Supervisor.SwapModel.
	Model *model.Model
	// IdleAfter tears a lane down once the fleet's stream time has
	// advanced this far past the lane's newest record; zero disables
	// teardown. Must cover both the detection window and the gateway
	// rate window, or a teardown would lose in-window state a dedicated
	// engine keeps.
	IdleAfter time.Duration
	// Vnodes is the virtual-node count per host on the hash ring; zero
	// means DefaultVnodes.
	Vnodes int
}

// hashRing is a consistent-hash ring: Vnodes points per host, a channel
// maps to the first point at or after its own hash. Pure function of
// (host count, vnodes, channel name).
type hashRing struct {
	points []uint64
	hosts  []int
}

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func newHashRing(hosts, vnodes int) *hashRing {
	type point struct {
		hash uint64
		host int
	}
	pts := make([]point, 0, hosts*vnodes)
	for h := 0; h < hosts; h++ {
		for v := 0; v < vnodes; v++ {
			pts = append(pts, point{fnvHash(fmt.Sprintf("engine-%d/vnode-%d", h, v)), h})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].host < pts[j].host
	})
	r := &hashRing{points: make([]uint64, len(pts)), hosts: make([]int, len(pts))}
	for i, p := range pts {
		r.points[i] = p.hash
		r.hosts[i] = p.host
	}
	return r
}

func (r *hashRing) host(channel string) int {
	h := fnvHash(channel)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.hosts[i]
}

// quotaState is one channel's deterministic ingest quota: a tumbling
// window in record time, phased from the channel's first record. admit
// is called from the demux goroutine only; shed and over are read live
// by Stats/Health and the serving layer's 429 pre-check.
type quotaState struct {
	start time.Duration
	have  bool
	n     int
	shed  atomic.Uint64
	over  atomic.Bool
}

func (q *quotaState) admit(t time.Duration, frames int, window time.Duration) bool {
	if frames <= 0 {
		return true
	}
	if !q.have {
		q.have, q.start = true, t
	}
	if detect.WindowExpired(q.start, t, window) {
		q.start = detect.NextWindowStart(q.start, t, window)
		q.n = 0
		q.over.Store(false)
	}
	q.n++
	if q.n > frames {
		q.shed.Add(1)
		q.over.Store(true)
		return false
	}
	return true
}

// Lane lifecycle states.
const (
	laneLive int32 = iota
	laneIdle
	laneDead
)

// laneState is one vehicle's fleet-visible state: live counters (the
// lane's goroutine writes, Stats reads), the quota gate (the demux
// writes), and the teardown residue (owned by the lane's host between
// teardown and respin).
type laneState struct {
	host int

	frames          atomic.Uint64
	dropped         atomic.Uint64
	droppedInjected atomic.Uint64
	windows         atomic.Uint64
	alerts          atomic.Uint64
	lost            atomic.Uint64
	lastTime        atomic.Int64
	epoch           atomic.Uint64
	state           atomic.Int32

	quota quotaState

	// Teardown residue: the tumbling phases and quarantine list a respun
	// lane resumes from. Host-goroutine owned; never read while live.
	winStart   time.Duration
	haveWindow bool
	rateStart  time.Duration
	haveRate   bool
	quar       map[can.ID]time.Duration
}

// fleetRun is the supervisor's fleet-mode state.
type fleetRun struct {
	cfg      FleetConfig
	ring     *hashRing
	curModel atomic.Pointer[model.Model]

	mu      sync.Mutex
	lanes   map[string]*laneState
	hostErr []string // per-host failure, "" while healthy
}

func (f *fleetRun) laneNames() []string {
	f.mu.Lock()
	out := make([]string, 0, len(f.lanes))
	for ch := range f.lanes {
		out = append(out, ch)
	}
	f.mu.Unlock()
	sort.Strings(out)
	return out
}

// hostMsg is one demux→host delivery: a single-channel record slab, or
// a teardown command for an idle lane.
type hostMsg struct {
	ch   string
	st   *laneState
	recs []trace.Record
	down bool
}

// fleetHost is one host goroutine's handle.
type fleetHost struct {
	id   int
	feed chan hostMsg
	done chan struct{}
	err  error
}

// lane is one live vehicle pipeline: the sequential counterpart of a
// dedicated engine, hosted K-to-N. All methods run on the owning host's
// goroutine.
type lane struct {
	channel string
	st      *laneState
	m       *model.Model
	det     *core.Detector
	gw      *gateway.Gateway
	resp    *response.Responder
	W       time.Duration

	// Mirror of the detector's window walk (same arithmetic), so the
	// lane knows when a boundary was crossed — the only point a model
	// swap may land, exactly like the engine dispatcher's barrier.
	winStart   time.Duration
	haveWindow bool

	sink func(string, detect.Alert)
}

// spinUp builds a lane serving the fleet's current model, resuming any
// residue a previous incarnation left: quarantines re-arm, and the
// detection and rate windows keep their original tumbling phase,
// advanced over the silent gap with the same skip-ahead a dedicated
// engine applies when the vehicle's next frame arrives.
func (f *fleetRun) spinUp(channel string, st *laneState, t time.Duration,
	sink func(string, detect.Alert)) (*lane, error) {

	m := f.curModel.Load()
	det, err := core.New(m.Core())
	if err != nil {
		return nil, fmt.Errorf("engine: fleet: lane %q: %w", channel, err)
	}
	if err := det.SetTemplate(m.Template()); err != nil {
		return nil, fmt.Errorf("engine: fleet: lane %q: %w", channel, err)
	}
	l := &lane{
		channel: channel, st: st, m: m, det: det,
		W:    m.Core().Window,
		sink: sink,
	}
	if gp := m.Gateway(); gp != nil {
		l.gw = gateway.NewWithPolicy(gp)
		if st.quar != nil {
			l.gw.RestoreQuarantines(st.quar)
			st.quar = nil
		}
		if st.haveRate {
			start := st.rateStart
			if rw := gp.RateWindow(); rw > 0 && detect.WindowExpired(start, t, rw) {
				start = detect.NextWindowStart(start, t, rw)
			}
			l.gw.SeedRateWindow(start)
			st.haveRate = false
		}
		if rc := m.Response(); rc != nil {
			l.resp, err = response.New(l.gw, *rc)
			if err != nil {
				return nil, fmt.Errorf("engine: fleet: lane %q: %w", channel, err)
			}
		}
	}
	if st.haveWindow {
		start := st.winStart
		if detect.WindowExpired(start, t, l.W) {
			start = detect.NextWindowStart(start, t, l.W)
		}
		det.SeedWindow(start)
		l.winStart, l.haveWindow = start, true
		st.haveWindow = false
	}
	st.epoch.Store(m.Epoch())
	st.state.Store(laneLive)
	return l, nil
}

// feed processes one record: classify under the current policy, walk
// the window, score through the sequential detector, respond — and at
// a window boundary, pick up a fleet-wide model swap. The ordering
// matches the engine dispatcher exactly: the boundary-crossing record
// is classified under the old policy, windows closing at the boundary
// score under the old template, and the new model applies from the
// first window starting at or after it.
func (l *lane) feed(f *fleetRun, rec trace.Record) error {
	st := l.st
	st.frames.Add(1)
	st.lastTime.Store(int64(rec.Time))
	if l.gw != nil {
		if v := l.gw.Classify(rec); v != gateway.Forward {
			st.dropped.Add(1)
			if rec.Injected {
				st.droppedInjected.Add(1)
			}
			return nil
		}
	}
	if !l.haveWindow {
		l.winStart, l.haveWindow = rec.Time, true
	}
	crossed := false
	for detect.WindowExpired(l.winStart, rec.Time, l.W) {
		l.winStart = detect.NextWindowStart(l.winStart, rec.Time, l.W)
		st.windows.Add(1)
		crossed = true
	}
	for _, a := range l.det.Observe(rec) {
		if err := l.emit(a); err != nil {
			return err
		}
	}
	if crossed {
		if m := f.curModel.Load(); m != l.m {
			if err := l.install(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit closes the response loop for one alert, then hands it to the
// sink — the same order the engine's window merger uses (blocks are on
// the gateway before the alert is visible downstream).
func (l *lane) emit(a detect.Alert) error {
	if l.resp != nil {
		if _, err := l.resp.HandleAlert(a); err != nil {
			return fmt.Errorf("engine: fleet: lane %q response: %w", l.channel, err)
		}
	}
	l.st.alerts.Add(1)
	l.sink(l.channel, a)
	return nil
}

// install applies a checked fleet model at a window boundary —
// template, gateway policy snapshot, response policy, epoch.
func (l *lane) install(m *model.Model) error {
	if err := installModel(m, l.det, l.gw, l.resp); err != nil {
		return fmt.Errorf("engine: fleet: lane %q swap: %w", l.channel, err)
	}
	l.m = m
	l.st.epoch.Store(m.Epoch())
	return nil
}

// flush closes the lane's open window, like the engine's EOF flush: the
// partial window is scored and its alerts responded to and emitted.
func (l *lane) flush() error {
	if l.haveWindow {
		l.st.windows.Add(1)
	}
	for _, a := range l.det.Flush() {
		if err := l.emit(a); err != nil {
			return err
		}
	}
	return nil
}

// teardown flushes the lane and stores its residue, so the next frame
// respins an equivalent lane: same window phases, same quarantines.
func (l *lane) teardown() error {
	if err := l.flush(); err != nil {
		return err
	}
	st := l.st
	st.winStart, st.haveWindow = l.winStart, l.haveWindow
	if l.gw != nil {
		st.rateStart, st.haveRate = l.gw.RateWindowStart()
		if q := l.gw.Quarantines(); len(q) > 0 {
			st.quar = q
		}
	}
	st.state.Store(laneIdle)
	return nil
}

// SwapModel queues an immutable model for every fleet lane: each live
// lane installs it at its next window boundary, idle lanes pick it up
// when they respin, and new vehicles spin up serving it. The model must
// structurally match the fleet's current one (same core configuration,
// gateway and response policy present exactly when they are now), so an
// accepted swap can never fail at a lane. Classic (non-fleet)
// supervisors reject the call — their engines swap individually through
// Engine.Swap.
func (s *Supervisor) SwapModel(m *model.Model) error {
	f := s.fleet
	if f == nil {
		return fmt.Errorf("engine: supervisor is not in fleet mode")
	}
	base := f.curModel.Load()
	if err := checkModel(m, base.Core(), base.Gateway() != nil, base.Response() != nil); err != nil {
		return fmt.Errorf("engine: fleet swap: %w", err)
	}
	f.curModel.Store(m)
	return nil
}

// FleetModel returns the model the fleet is serving, or nil for a
// classic supervisor.
func (s *Supervisor) FleetModel() *model.Model {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.curModel.Load()
}

// OverQuota reports whether the channel is currently over its ingest
// quota — the serving layer's advisory 429 pre-check. Always false when
// no quota is configured or the channel is unknown.
func (s *Supervisor) OverQuota(channel string) bool {
	if q := s.quotaOf(channel); q != nil {
		return q.over.Load()
	}
	return false
}

// quotaOf finds the channel's quota gate in either mode.
func (s *Supervisor) quotaOf(channel string) *quotaState {
	if f := s.fleet; f != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		if st := f.lanes[channel]; st != nil {
			return &st.quota
		}
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.runs[channel]; r != nil {
		return &r.quota
	}
	return nil
}

// runFleet is Run's fleet-mode body: demux by consistent hash into K
// host goroutines, shed over-quota records, tear down idle lanes.
func (s *Supervisor) runFleet(ctx context.Context, src Source, pool *RecordPool, sink func(string, detect.Alert)) (map[string]Stats, error) {
	f := s.fleet
	K := f.cfg.Engines
	f.mu.Lock()
	f.lanes = make(map[string]*laneState)
	f.hostErr = make([]string, K)
	f.mu.Unlock()

	hosts := make([]*fleetHost, K)
	for i := range hosts {
		h := &fleetHost{id: i, feed: make(chan hostMsg, s.cfg.Buffer), done: make(chan struct{})}
		hosts[i] = h
		go s.serveHost(ctx, f, h, sink, pool)
	}

	// laneRoute is a channel's demux route plus what the idle sweep
	// needs. The demux goroutine owns admission, routing and idle
	// detection, so the whole delivered stream is a pure function of the
	// input stream.
	type laneRoute struct {
		route
		st   *laneState
		host *fleetHost
		down bool // teardown sent, nothing delivered since
	}
	var routes []*laneRoute
	open := func(channel string) (*route, error) {
		st := &laneState{host: f.ring.host(channel)}
		f.mu.Lock()
		f.lanes[channel] = st
		f.mu.Unlock()
		c := &laneRoute{st: st, host: hosts[st.host]}
		c.quota = &st.quota
		c.deliver = func(slab []trace.Record) bool {
			c.down = false
			return send(ctx, c.host.feed, hostMsg{ch: channel, st: st, recs: slab})
		}
		routes = append(routes, c)
		return &c.route, nil
	}
	var sweep func(time.Duration) bool
	if f.cfg.IdleAfter > 0 {
		sweep = func(newest time.Duration) bool {
			for _, c := range routes {
				if c.down || !detect.WindowExpired(c.lastTime, newest, f.cfg.IdleAfter) {
					continue
				}
				if !send(ctx, c.host.feed, hostMsg{ch: c.channel, st: c.st, down: true}) {
					return false
				}
				c.down = true
			}
			return true
		}
	}
	err := s.demux(ctx, src, pool, open, sweep)

	for _, h := range hosts {
		close(h.feed)
	}
	for _, h := range hosts {
		<-h.done
		if err == nil && h.err != nil {
			err = fmt.Errorf("fleet host %d: %w", h.id, h.err)
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	return s.Stats(), err
}

// serveHost is one host goroutine: it owns its lanes, processes their
// record slabs sequentially, and executes teardown commands. A failure
// (panic or lane error) marks the host's lanes dead and drains the feed
// counting lost records, so the demux never blocks behind it — the
// other hosts' output is unaffected.
func (s *Supervisor) serveHost(ctx context.Context, f *fleetRun, h *fleetHost,
	sink func(string, detect.Alert), pool *RecordPool) {

	defer close(h.done)
	lanes := make(map[string]*lane)
	err := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = &PanicError{Stage: "fleet-host", Value: v, Stack: debug.Stack()}
			}
		}()
		for {
			select {
			case msg, ok := <-h.feed:
				if !ok {
					// End of stream: flush every live lane in name order,
					// like the engine's EOF flush.
					names := make([]string, 0, len(lanes))
					for ch := range lanes {
						names = append(names, ch)
					}
					sort.Strings(names)
					for _, ch := range names {
						if err := lanes[ch].flush(); err != nil {
							return err
						}
					}
					return nil
				}
				if msg.down {
					if l := lanes[msg.ch]; l != nil {
						if err := l.teardown(); err != nil {
							return err
						}
						delete(lanes, msg.ch)
					}
					continue
				}
				l := lanes[msg.ch]
				if l == nil {
					var lerr error
					l, lerr = f.spinUp(msg.ch, msg.st, msg.recs[0].Time, sink)
					if lerr != nil {
						return lerr
					}
					lanes[msg.ch] = l
				}
				for _, rec := range msg.recs {
					if err := l.feed(f, rec); err != nil {
						return err
					}
				}
				pool.Put(msg.recs)
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}()
	if err == nil || ctx.Err() != nil {
		h.err = err
		return
	}
	h.err = err
	f.mu.Lock()
	f.hostErr[h.id] = err.Error()
	f.mu.Unlock()
	for _, l := range lanes {
		l.st.state.Store(laneDead)
	}
	// Drain so the demux never blocks behind the dead host; every
	// undelivered record is counted lost, exactly.
	for {
		select {
		case msg, ok := <-h.feed:
			if !ok {
				return
			}
			if !msg.down {
				msg.st.lost.Add(uint64(len(msg.recs)))
				msg.st.state.Store(laneDead)
				pool.Put(msg.recs)
			}
		case <-ctx.Done():
			return
		}
	}
}

// stats builds the per-channel statistics map from lane states.
func (f *fleetRun) stats() map[string]Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]Stats, len(f.lanes))
	for ch, st := range f.lanes {
		out[ch] = Stats{
			Frames:          st.frames.Load(),
			Dropped:         st.dropped.Load(),
			DroppedInjected: st.droppedInjected.Load(),
			Windows:         st.windows.Load(),
			Alerts:          st.alerts.Load(),
			Lost:            st.lost.Load(),
			Shed:            st.quota.shed.Load(),
			LastTime:        time.Duration(st.lastTime.Load()),
		}
	}
	return out
}

// health builds the per-channel health map from lane states.
func (f *fleetRun) health() map[string]BusHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]BusHealth, len(f.lanes))
	for ch, st := range f.lanes {
		h := BusHealth{
			Accepted: st.frames.Load() + st.lost.Load(),
			Lost:     st.lost.Load(),
			Shed:     st.quota.shed.Load(),
			Epoch:    st.epoch.Load(),
		}
		switch st.state.Load() {
		case laneIdle:
			h.State = BusIdle
		case laneDead:
			h.State = BusDead
			h.LastError = f.hostErr[st.host]
		default:
			h.State = BusOK
		}
		out[ch] = h
	}
	return out
}
