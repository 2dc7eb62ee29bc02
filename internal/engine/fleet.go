// Fleet mode: many vehicles multiplexed over a few engine hosts.
//
// Classic supervision gives every bus its own Engine and host
// goroutine. That is the right shape for a handful of high-rate buses,
// but it makes the per-vehicle marginal cost a goroutine, a feed and a
// whole set of policy state, which caps how many vehicles one serving
// node can hold. Fleet mode inverts the layout: K hosts serve N vehicles
// (N >> K), each vehicle as a lane — the same per-record pipeline an
// Engine runs (see lane.go), over a core.Detector, a gateway sharing the
// fleet's immutable policy snapshot, and a responder. A lane's marginal
// state is its bit counters plus its quarantine list; everything big
// (the template, the whitelist, the budget table) lives once in the
// shared model.Model.
//
// Because a fleet lane and an Engine run the same lane code, a
// vehicle's alert stream is bit-identical to a dedicated engine fed the
// same records (TestFleetMatchesDedicatedEngines) — the engine's own
// equivalence to the sequential detector closes the triangle. Only the
// boundary swap rule differs: a lane installs the fleet's current model
// when it differs from its own, where an Engine consumes its queued
// Swap.
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
// is down are counted lost per vehicle. FleetConfig.Fault arms the same
// fault seams an Engine has, scoped by vehicle. Fleet v1 still trades
// generality for density: no per-lane adaptation, no baselines, and one
// model for the whole fleet.
//
// Clock skew between vehicles is tolerated up to IdleAfter. The demux
// judges idleness against the newest record time seen on any vehicle:
// after every input slab it tears down each vehicle whose newest record
// is IdleAfter or more behind it. A vehicle whose clock lags the fleet
// by less than IdleAfter minus its own longest silence keeps its lane,
// and its alert stream is that of a dedicated engine. A vehicle lagging
// by IdleAfter or more is torn down after every input slab it appears
// in. Each teardown flushes its open window, and the respun lane resumes
// the stored window and rate phases and quarantines, so a window that
// spans a slab edge is scored in pieces and the rate counts restart at
// the edge. The result is deterministic for a given slab structure, but
// it is not the dedicated engine's stream (pinned by
// TestFleetLaggingClockTeardown).
package engine

import (
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"sort"
	"sync/atomic"
	"time"

	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/fault"
	"canids/internal/gateway"
	"canids/internal/model"
	"canids/internal/response"
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
	// Fault, when set, arms deterministic fault injection in every lane:
	// the same fault.EngineFrame and fault.EngineSwap seams an Engine
	// consults, scoped by the vehicle's channel.
	Fault *fault.Injector
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
	log      *slog.Logger
	curModel atomic.Pointer[model.Model]
}

// boundaryModel implements swapSource with the fleet's rule: a lane
// installs the fleet's current model at its next boundary when it
// differs from the one the lane serves.
func (f *fleetRun) boundaryModel(cur *model.Model) *model.Model {
	if m := f.curModel.Load(); m != cur {
		return m
	}
	return nil
}

// spinUp builds a vehicle's lane serving the fleet's current model,
// resuming any residue a previous incarnation left: quarantines re-arm,
// and the detection and rate windows keep their original tumbling
// phase, advanced over the silent gap with the same skip-ahead a
// dedicated engine applies when the vehicle's next frame arrives.
func (f *fleetRun) spinUp(c *chanState, t time.Duration, sink func(string, detect.Alert)) (*lane, error) {
	m := f.curModel.Load()
	det, err := core.New(m.Core())
	if err != nil {
		return nil, fmt.Errorf("engine: fleet: lane %q: %w", c.name, err)
	}
	if err := det.SetTemplate(m.Template()); err != nil {
		return nil, fmt.Errorf("engine: fleet: lane %q: %w", c.name, err)
	}
	var gw *gateway.Gateway
	var resp *response.Responder
	if gp := m.Gateway(); gp != nil {
		gw = gateway.NewWithPolicy(gp)
		if c.quar != nil {
			gw.RestoreQuarantines(c.quar)
			c.quar = nil
		}
		if c.haveRate {
			start := c.rateStart
			if rw := gp.RateWindow(); rw > 0 && detect.WindowExpired(start, t, rw) {
				start = detect.NextWindowStart(start, t, rw)
			}
			gw.SeedRateWindow(start)
			c.haveRate = false
		}
		if rc := m.Response(); rc != nil {
			if resp, err = response.New(gw, *rc); err != nil {
				return nil, fmt.Errorf("engine: fleet: lane %q: %w", c.name, err)
			}
		}
	}
	l := newLane(c.name, det, gw, resp, &c.counters, f, f.cfg.Fault, f.log)
	l.sink = func(a detect.Alert) { sink(c.name, a) }
	if c.haveWindow {
		start := c.winStart
		if detect.WindowExpired(start, t, l.W) {
			start = detect.NextWindowStart(start, t, l.W)
		}
		l.winStart, l.haveWindow = start, true
		c.haveWindow = false
	}
	c.serving.Store(m)
	c.idle.Store(false)
	return l, nil
}

// teardown flushes the lane and stores its residue, so the next frame
// respins an equivalent lane: same window phases, same quarantines.
func (l *lane) teardown(c *chanState) error {
	if err := l.flush(); err != nil {
		return err
	}
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
			sort.Slice(live, func(i, j int) bool { return live[i].scope < live[j].scope })
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
				if err := l.teardown(m.c); err != nil {
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
			if err := l.feed(rec); err != nil {
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
