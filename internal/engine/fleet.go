// Fleet mode: many vehicles multiplexed over a few engine hosts.
//
// Classic supervision gives every bus its own full Engine — dispatcher,
// shard workers, buffered channels. That is the right shape for
// a handful of high-rate buses, but it makes the per-vehicle marginal
// cost a whole pipeline, which is what caps how many vehicles one
// serving node can hold. Fleet mode inverts the layout: K hosts serve
// N vehicles (N >> K), each vehicle as a *lane* — a sequential
// core.Detector, a gateway sharing the fleet's immutable policy
// snapshot, and a responder. A lane's marginal state is the detector's
// bit counters plus its quarantine list; everything big (the template,
// the whitelist, the budget table) lives once in the shared
// model.Model.
//
// Determinism is preserved lane by lane: a lane walks windows through
// the same detect arithmetic as the engine's dispatcher and scores them
// through the same core.Detector the dispatcher uses, so a vehicle's
// alert stream is bit-identical to a dedicated engine fed the same
// records (TestFleetMatchesDedicatedEngines) — the engine's own
// equivalence to the sequential detector closes the triangle.
//
// Vehicles are assigned to hosts by rendezvous hashing (hostOf), so the
// channel→host mapping is a pure function of the channel name and the
// host count: re-running a capture, or replaying an incident, lands
// every vehicle on the same host. Lanes spin up lazily on a vehicle's
// first frame and are torn down after IdleAfter of stream-time silence;
// teardown flushes the open window and keeps a small residue (window
// phase, rate phase, quarantines) so a respun lane continues exactly
// where the old one stopped. Per-vehicle ingest quotas are enforced at
// the demux on record timestamps — deterministic shedding, not
// wall-clock — and surfaced per channel in Stats and Health.
//
// A fleet host is supervised exactly like a classic bus: a crash
// restarts it (with the same budget and backoff) with an empty lane
// table, and its vehicles respin on their next record, much as a
// classic bus restarts from its base model; records arriving while it
// is down are counted lost per vehicle. Fleet v1 still trades
// generality for density: no per-lane adaptation, no baselines, and one
// model for the whole fleet. The clocks across vehicles are assumed
// comparable: idle teardown is judged against the newest timestamp seen
// anywhere, so a vehicle whose clock lags far behind the fleet can have
// its open window flushed early — deterministically, but not
// identically to a never-torn-down lane.
package engine

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/gateway"
	"canids/internal/model"
	"canids/internal/response"
	"canids/internal/trace"
)

// BusIdle is the Health state of a fleet lane torn down for idleness;
// its next frame respins it.
const BusIdle = "idle"

// FleetConfig switches a Supervisor into fleet mode.
type FleetConfig struct {
	// Engines is the number of hosts vehicles are multiplexed over (K
	// in "N vehicles over K engines"). At least 1.
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
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// hostOf assigns a channel to one of n hosts by rendezvous hashing: the
// host with the largest mix64(fnv64a(channel) ^ seed(host)), where
// seed(i) is the (i+1)-th splitmix64 state. The finalizer spreads names
// that differ only in a suffix, which plain FNV-64a does not. Growing n
// by one moves only the channels the new host wins.
func hostOf(channel string, n int) int {
	f := fnv.New64a()
	f.Write([]byte(channel))
	key := f.Sum64()
	best, top := 0, uint64(0)
	for i := 0; i < n; i++ {
		if w := mix64(key ^ uint64(i+1)*0x9e3779b97f4a7c15); w > top {
			best, top = i, w
		}
	}
	return best
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

// fleetRun is the supervisor's fleet-mode state.
type fleetRun struct {
	cfg      FleetConfig
	curModel atomic.Pointer[model.Model]
}

// lane is one live vehicle pipeline: the sequential counterpart of a
// dedicated engine, hosted K-to-N. All methods run on the owning host's
// goroutine.
type lane struct {
	c    *chanState
	m    *model.Model
	det  *core.Detector
	gw   *gateway.Gateway
	resp *response.Responder
	W    time.Duration

	// Mirror of the detector's window walk (same arithmetic), so the
	// lane knows when a boundary was crossed — the only point a model
	// swap may land, exactly like the engine dispatcher's window close.
	winStart   time.Duration
	haveWindow bool

	sink func(string, detect.Alert)
}

// spinUp builds a lane serving the fleet's current model, resuming any
// residue a previous incarnation left: quarantines re-arm, and the
// detection and rate windows keep their original tumbling phase,
// advanced over the silent gap with the same skip-ahead a dedicated
// engine applies when the vehicle's next frame arrives.
func (f *fleetRun) spinUp(c *chanState, t time.Duration, sink func(string, detect.Alert)) (*lane, error) {
	m := f.curModel.Load()
	det, err := core.New(m.Core())
	if err != nil {
		return nil, fmt.Errorf("engine: fleet: lane %q: %w", c.name, err)
	}
	if err := det.SetTemplate(m.Template()); err != nil {
		return nil, fmt.Errorf("engine: fleet: lane %q: %w", c.name, err)
	}
	l := &lane{c: c, m: m, det: det, W: m.Core().Window, sink: sink}
	if gp := m.Gateway(); gp != nil {
		l.gw = gateway.NewWithPolicy(gp)
		if c.quar != nil {
			l.gw.RestoreQuarantines(c.quar)
			c.quar = nil
		}
		if c.haveRate {
			start := c.rateStart
			if rw := gp.RateWindow(); rw > 0 && detect.WindowExpired(start, t, rw) {
				start = detect.NextWindowStart(start, t, rw)
			}
			l.gw.SeedRateWindow(start)
			c.haveRate = false
		}
		if rc := m.Response(); rc != nil {
			l.resp, err = response.New(l.gw, *rc)
			if err != nil {
				return nil, fmt.Errorf("engine: fleet: lane %q: %w", c.name, err)
			}
		}
	}
	if c.haveWindow {
		start := c.winStart
		if detect.WindowExpired(start, t, l.W) {
			start = detect.NextWindowStart(start, t, l.W)
		}
		det.SeedWindow(start)
		l.winStart, l.haveWindow = start, true
		c.haveWindow = false
	}
	c.epoch.Store(m.Epoch())
	c.idle.Store(false)
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
	c := l.c
	c.frames.Add(1)
	c.lastTime.Store(int64(rec.Time))
	if l.gw != nil {
		if v := l.gw.Classify(rec); v != gateway.Forward {
			c.dropped.Add(1)
			if rec.Injected {
				c.droppedInjected.Add(1)
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
		c.windows.Add(1)
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
// sink — the same order the engine's dispatcher uses (blocks are on the
// gateway before the alert is visible downstream).
func (l *lane) emit(a detect.Alert) error {
	if l.resp != nil {
		if _, err := l.resp.HandleAlert(a); err != nil {
			return fmt.Errorf("engine: fleet: lane %q response: %w", l.c.name, err)
		}
	}
	l.c.alerts.Add(1)
	l.sink(l.c.name, a)
	return nil
}

// install applies a checked fleet model at a window boundary —
// template, gateway policy snapshot, response policy, epoch.
func (l *lane) install(m *model.Model) error {
	if err := installModel(m, l.det, l.gw, l.resp); err != nil {
		return fmt.Errorf("engine: fleet: lane %q swap: %w", l.c.name, err)
	}
	l.m = m
	l.c.epoch.Store(m.Epoch())
	return nil
}

// flush closes the lane's open window, like the engine's EOF flush: the
// partial window is scored and its alerts responded to and emitted.
func (l *lane) flush() error {
	if l.haveWindow {
		l.c.windows.Add(1)
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
	c := l.c
	c.winStart, c.haveWindow = l.winStart, l.haveWindow
	if l.gw != nil {
		c.rateStart, c.haveRate = l.gw.RateWindowStart()
		if q := l.gw.Quarantines(); len(q) > 0 {
			c.quar = q
		}
	}
	c.idle.Store(true)
	return nil
}

// serveLanes is one fleet host incarnation: it owns a lane table,
// processes its vehicles' record slabs sequentially, and executes
// teardown commands. The supervisor's host loop runs it under panic
// recovery and restarts it, with an empty table, after a failure.
func (f *fleetRun) serveLanes(in *hostFeed, sink func(string, detect.Alert)) error {
	lanes := make(map[*chanState]*lane)
	for {
		m, err := in.take()
		if err == io.EOF {
			// End of stream: flush every live lane in name order, like
			// the engine's EOF flush.
			live := make([]*lane, 0, len(lanes))
			for _, l := range lanes {
				live = append(live, l)
			}
			sort.Slice(live, func(i, j int) bool { return live[i].c.name < live[j].c.name })
			for _, l := range live {
				if err := l.flush(); err != nil {
					return err
				}
			}
			return nil
		}
		if err != nil {
			return err
		}
		l := lanes[m.c]
		if m.recs == nil {
			if l != nil {
				if err := l.teardown(); err != nil {
					return err
				}
				delete(lanes, m.c)
			}
			continue
		}
		if l == nil {
			if l, err = f.spinUp(m.c, m.recs[0].Time, sink); err != nil {
				return err
			}
			lanes[m.c] = l
		}
		for in.next < len(m.recs) {
			rec := m.recs[in.next]
			in.next++
			if err := l.feed(f, rec); err != nil {
				return err
			}
		}
	}
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

// quotaOf finds the channel's quota gate.
func (s *Supervisor) quotaOf(channel string) *quotaState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.chans[channel]; c != nil {
		return &c.quota
	}
	return nil
}
