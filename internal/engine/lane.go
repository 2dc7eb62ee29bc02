package engine

import (
	"cmp"
	"fmt"
	"log/slog"
	"slices"
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

// counters are one pipeline's live statistics and served model: written
// by the lane's goroutine, read live by Stats and Health.
type counters struct {
	frames          atomic.Uint64
	dropped         atomic.Uint64
	droppedInjected atomic.Uint64
	windows         atomic.Uint64
	alerts          atomic.Uint64
	lastTime        atomic.Int64
	// serving is the model the lane serves right now: published at
	// construction and at every boundary install.
	serving atomic.Pointer[model.Model]
}

// reset zeroes the run counters (the served model stays).
func (c *counters) reset() {
	c.frames.Store(0)
	c.dropped.Store(0)
	c.droppedInjected.Store(0)
	c.windows.Store(0)
	c.alerts.Store(0)
	c.lastTime.Store(0)
}

func (c *counters) stats() Stats {
	return Stats{
		Frames:          c.frames.Load(),
		Dropped:         c.dropped.Load(),
		DroppedInjected: c.droppedInjected.Load(),
		Windows:         c.windows.Load(),
		Alerts:          c.alerts.Load(),
		LastTime:        time.Duration(c.lastTime.Load()),
	}
}

// swapSource decides which model a lane installs at a window boundary,
// after the adaptation hook's. The two rules stay distinct: an Engine
// consumes its queued Swap (so a stale operator pointer can never
// revert a promotion), a fleet lane installs the fleet's current model
// when it differs from its own.
type swapSource interface {
	boundaryModel(cur *model.Model) *model.Model
}

// rankedAlert is an alert tagged with its detector's place in the output
// order: 0 for the bit-entropy detector, 1+j for the lane's baselines[j].
type rankedAlert struct {
	rank int
	detect.Alert
}

// lane is one bus's detection pipeline — the only one in this package.
// An Engine runs one lane over its Source; a fleet host runs one per
// vehicle. All methods run on the owning goroutine.
type lane struct {
	scope     string // fault scope and error label: the bus or vehicle
	m         *model.Model
	gw        *gateway.Gateway
	resp      *response.Responder
	base      []detect.Detector
	adapt     AdaptHook
	onDrop    func(trace.Record, gateway.Verdict)
	onAction  func(response.Action)
	flt       *fault.Injector
	closeHist *hist.Histogram
	log       *slog.Logger
	swaps     swapSource
	st        *counters
	sink      func(detect.Alert)

	// The window walk: counter holds the open window's identifier bits;
	// h and p are its reused measurement vectors.
	W          time.Duration
	counter    *entropy.BitCounter
	h, p       []float64
	winStart   time.Duration
	haveWindow bool
	winDropped uint64
	// release holds the alerts raised since the last window close: the
	// baselines' as they observe records, then the closing window's
	// bit-entropy alert.
	release []rankedAlert
}

// newLane builds a lane serving m, with the gateway and responder the
// model's policy calls for — the one place either is built, for a
// classic bus and a fleet vehicle alike — and publishes m. The lane
// scores every window with the model's core configuration and template
// directly; it holds no detector of its own.
func newLane(scope string, m *model.Model, st *counters, swaps swapSource,
	flt *fault.Injector, log *slog.Logger) (*lane, error) {
	w := m.Core().Width
	l := &lane{
		scope: scope, m: m, st: st, swaps: swaps, flt: flt, log: log,
		W:       m.Core().Window,
		counter: entropy.MustBitCounter(w),
		h:       make([]float64, w),
		p:       make([]float64, w),
	}
	if gp := m.Gateway(); gp != nil {
		l.gw = gateway.NewWithPolicy(gp)
		if rc := m.Response(); rc != nil {
			resp, err := response.New(l.gw, *rc)
			if err != nil {
				return nil, err
			}
			l.resp = resp
		}
	}
	st.serving.Store(m)
	return l, nil
}

// reset clears the streaming state for a new run: the window walk, the
// baselines, and the gateway's rate state and counters (its blocklist
// persists — a quarantine outlives the stream that triggered it).
func (l *lane) reset(sink func(detect.Alert)) {
	l.counter.Reset()
	l.winStart, l.haveWindow, l.winDropped = 0, false, 0
	l.release = l.release[:0]
	l.sink = sink
	for _, b := range l.base {
		b.Reset()
	}
	if l.gw != nil {
		l.gw.Reset()
	}
}

// install applies a model checked by model.Compatible — the policy
// snapshots into the gateway and responder when present — and publishes
// it; the next window scores under its template.
func (l *lane) install(m *model.Model) error {
	if l.gw != nil {
		if err := l.gw.SetPolicy(m.Gateway()); err != nil {
			return err
		}
	}
	if l.resp != nil {
		if err := l.resp.SetPolicy(*m.Response()); err != nil {
			return err
		}
	}
	l.m = m
	l.st.serving.Store(m)
	return nil
}

// installAt installs one checked model at the boundary opening the
// current window — the single code path every swap source funnels
// through. The check makes a real rejection unreachable; the
// fault.EngineSwap seam is how the regression test forces the failure
// path, which ends the run with an error the supervisor's restart path
// absorbs like any other crash.
func (l *lane) installAt(m *model.Model) error {
	err := l.install(m)
	if err == nil && l.flt != nil {
		err = l.flt.Hit(fault.EngineSwap, l.scope)
	}
	if err != nil {
		return fmt.Errorf("engine: swap template rejected at install: %w", err)
	}
	l.log.Debug("model installed at window boundary",
		"scope", l.scope, "epoch", m.Epoch(), "from", l.winStart.String())
	return nil
}

// feed is the per-record pipeline: classify, feed the baselines, walk
// the window (closing it at a boundary: score, respond, release, adapt,
// swap), then count the record. The record that crosses a boundary is
// classified under the old policy, windows closing at the boundary
// score under the old template, and a model installed there applies
// from the window the record opens.
func (l *lane) feed(rec trace.Record) error {
	st := l.st
	st.frames.Add(1)
	st.lastTime.Store(int64(rec.Time))
	if l.flt != nil {
		// The seam fires after the count, so a record that triggers a
		// fault is still accounted as consumed — the supervisor's
		// lost-frame reconciliation stays exact across a crash.
		if err := l.flt.Hit(fault.EngineFrame, l.scope); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}
	if l.gw != nil {
		if v := l.gw.Classify(rec); v != gateway.Forward {
			st.dropped.Add(1)
			l.winDropped++
			if rec.Injected {
				st.droppedInjected.Add(1)
			}
			if l.onDrop != nil {
				l.onDrop(rec, v)
			}
			return nil
		}
	}
	for j, b := range l.base {
		l.release = appendRanked(l.release, 1+j, b.Observe(rec))
	}
	if !l.haveWindow {
		l.winStart, l.haveWindow = rec.Time, true
	}
	for detect.WindowExpired(l.winStart, rec.Time, l.W) {
		if err := l.boundary(rec.Time); err != nil {
			return err
		}
	}
	if l.adapt != nil {
		l.adapt.Observe(rec)
	}
	l.counter.Add(rec.Frame.ID)
	return nil
}

// boundary closes the open window for a record at time t and opens the
// next one: close (score, respond, release), hand the verdict to the
// adaptation hook and install the model it returned, then the swap
// source's.
func (l *lane) boundary(t time.Duration) error {
	alerted, err := l.closeWindow()
	if err != nil {
		return err
	}
	closed := l.winStart
	l.winStart = detect.NextWindowStart(closed, t, l.W)
	if l.adapt != nil {
		info := WindowInfo{
			Start:     closed,
			End:       detect.WindowEnd(closed, l.W),
			NextStart: l.winStart,
			Alerted:   alerted,
			Dropped:   l.winDropped,
		}
		l.winDropped = 0
		if m := l.adapt.WindowClosed(info); m != nil {
			if err := model.Compatible(l.m, m); err != nil {
				return fmt.Errorf("engine: adapt: %w", err)
			}
			if err := l.installAt(m); err != nil {
				return err
			}
		}
	}
	if m := l.swaps.boundaryModel(l.m); m != nil {
		return l.installAt(m)
	}
	return nil
}

// closeWindow scores the open window, hands its alert to the responder
// (so the blocks are on the gateway before the next record is
// classified), and releases the held alerts to the sink in (WindowEnd,
// rank) order. It reports whether the bit-entropy detector alerted.
func (l *lane) closeWindow() (bool, error) {
	var wall time.Time
	if l.closeHist != nil {
		wall = time.Now()
	}
	l.st.windows.Add(1)
	alerted := false
	if n := int(l.counter.Total()); n > 0 {
		l.counter.MeasureInto(l.h, l.p)
		// Same scoring function as the sequential detector's own window
		// close, so the alert stream is bit-identical.
		if a := core.ScoreWindow(l.m.Core(), l.m.Template(), l.winStart, l.h, l.p, n); a != nil {
			alerted = true
			if l.resp != nil {
				act, err := l.resp.HandleAlert(*a)
				if err != nil {
					return false, fmt.Errorf("engine: response: %w", err)
				}
				if act != nil && l.onAction != nil {
					l.onAction(*act)
				}
			}
			l.release = append(l.release, rankedAlert{Alert: *a})
		}
	}
	l.counter.Reset()
	if l.closeHist != nil {
		l.closeHist.Observe(time.Since(wall))
	}
	// Each baseline's alerts arrive in WindowEnd order, so a stable sort
	// by (WindowEnd, rank) is the merged order.
	slices.SortStableFunc(l.release, func(a, b rankedAlert) int {
		if c := cmp.Compare(a.WindowEnd, b.WindowEnd); c != 0 {
			return c
		}
		return cmp.Compare(a.rank, b.rank)
	})
	for _, a := range l.release {
		l.sink(a.Alert)
		l.st.alerts.Add(1)
	}
	l.release = l.release[:0]
	return alerted, nil
}

// flush closes the final partial window, like detect.Detector.Flush.
// The window phase stays, so a fleet teardown can store it.
func (l *lane) flush() error {
	if !l.haveWindow {
		return nil
	}
	for j, b := range l.base {
		l.release = appendRanked(l.release, 1+j, b.Flush())
	}
	_, err := l.closeWindow()
	return err
}

// appendRanked appends one detector's alerts, tagged with its rank.
func appendRanked(dst []rankedAlert, rank int, alerts []detect.Alert) []rankedAlert {
	for _, a := range alerts {
		dst = append(dst, rankedAlert{rank: rank, Alert: a})
	}
	return dst
}
