package engine_test

import (
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/fault"
	"canids/internal/model"
	"canids/internal/trace"
)

// TestEngineRunRecoversPanic: a panic on the dispatch path surfaces as
// a *PanicError from Run instead of crashing the process — the contract
// the supervisor's restart loop is built on.
func TestEngineRunRecoversPanic(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/SI-100")
	inj := fault.New()
	inj.ArmPanic(fault.EngineFrame, "", 500, 1)
	eng := newEngine(t, engine.Config{Fault: inj}, model.Spec{Template: tmpl})
	_, err := eng.Run(context.Background(), engine.NewSliceSource(tr), func(detect.Alert) {})
	var perr *engine.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("Run error = %v (%T), want *engine.PanicError", err, err)
	}
	if perr.Stage != "dispatch" {
		t.Errorf("panic stage = %q, want dispatch", perr.Stage)
	}
	if len(perr.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
	if eng.Stats().Frames != 500 {
		t.Errorf("Frames = %d, want 500 (panicking record still counted)", eng.Stats().Frames)
	}
}

// TestEngineRunRecoversStagePanic: a panic at a window boundary (here
// via the swap-install seam) also lands in Run's error.
func TestEngineRunRecoversStagePanic(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/SI-100")
	inj := fault.New()
	inj.ArmPanic(fault.EngineSwap, "", 1, 1)
	eng := newEngine(t, engine.Config{Fault: inj}, model.Spec{Template: tmpl})
	if err := eng.Swap(specModel(t, model.Spec{Template: tmpl})); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Run(context.Background(), engine.NewSliceSource(tr), func(detect.Alert) {})
	var perr *engine.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("Run error = %v (%T), want *engine.PanicError", err, err)
	}
	if perr.Stage != "dispatch" {
		t.Errorf("panic stage = %q, want dispatch", perr.Stage)
	}
}

// TestEngineSwapInstallFailure is the regression test for the former
// install-path panic: a swap that fails at install (reachable only
// through the fault seam, since validation happens at queue time) must
// come back as an engine-fatal error, not a process crash.
func TestEngineSwapInstallFailure(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/SI-100")
	inj := fault.New()
	inj.ArmError(fault.EngineSwap, "", 1, 1)
	eng := newEngine(t, engine.Config{Fault: inj}, model.Spec{Template: tmpl})
	if err := eng.Swap(specModel(t, model.Spec{Template: tmpl})); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Run(context.Background(), engine.NewSliceSource(tr), func(detect.Alert) {})
	if err == nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Run error = %v, want injected install failure", err)
	}
	if !strings.Contains(err.Error(), "swap template rejected at install") {
		t.Errorf("error %q does not name the install path", err)
	}
}

// faultFleet runs a two-bus supervisor over SI-100 (can-a) + FI-500
// (can-b) with the given config mutator and returns the per-bus alert
// streams, stats, health, and Run's error. The stream stays open until
// until(can-a's health) holds: the supervisor reports a bus whose
// stream ends during restart backoff as crashed, so the outcome each
// caller pins must not race the backoff timer.
func faultFleet(t *testing.T, mutate func(*engine.SupervisorConfig), until func(engine.BusHealth) bool) (
	map[string][]detect.Alert, map[string]engine.Stats, map[string]engine.BusHealth, *engine.Supervisor, error) {
	t.Helper()
	busA := retag(scenarioTrace(t, "fusion/idle/SI-100"), "can-a")
	busB := retag(scenarioTrace(t, "fusion/idle/FI-500"), "can-b")
	mixed := interleave(busA, busB)

	cfg := engine.SupervisorConfig{
		RestartBackoff: time.Millisecond,
	}
	mutate(&cfg)
	sup, err := engine.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &holdOpen{
		src: engine.NewSliceSource(mixed), sup: sup, channel: "can-a",
		until: until, deadline: time.Now().Add(10 * time.Second),
	}
	got := make(map[string][]detect.Alert)
	stats, runErr := sup.Run(context.Background(), src, func(ch string, a detect.Alert) {
		got[ch] = append(got[ch], a)
	})
	return got, stats, sup.Health(), sup, runErr
}

// holdOpen streams src, then keeps offering copies of channel's last
// record, a millisecond of stream time apart, until the predicate holds
// for the channel's health or the wall-clock deadline passes.
type holdOpen struct {
	src      engine.Source
	sup      *engine.Supervisor
	channel  string
	until    func(engine.BusHealth) bool
	deadline time.Time
	last     trace.Record
}

func (h *holdOpen) Next() (trace.Record, error) {
	rec, err := h.src.Next()
	if err == nil {
		if rec.Channel == h.channel {
			h.last = rec
		}
		return rec, nil
	}
	if err != io.EOF || h.until(h.sup.Health()[h.channel]) || time.Now().After(h.deadline) {
		return rec, err
	}
	h.last.Time += time.Millisecond
	return h.last, nil
}

// dedicatedAlerts is the undisturbed single-bus reference run.
func dedicatedAlerts(t *testing.T, name, channel string) []detect.Alert {
	t.Helper()
	_, tmpl, _ := loadFixture(t)
	tr := retag(scenarioTrace(t, name), channel)
	eng := newEngine(t, engine.Config{}, model.Spec{Template: tmpl})
	alerts, _, err := eng.Detect(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) == 0 {
		t.Fatalf("%s: reference run found no alerts", name)
	}
	return alerts
}

// TestSupervisorRestartsCrashedBus is the crash-isolation contract: bus
// A's engine panics mid-stream and is restarted; bus B's alert stream
// is bit-identical to an undisturbed run, the fleet-level Run reports
// no error, and bus A's accounting is exact — every record the demux
// accepted is either in Frames (some incarnation consumed it) or in
// Lost (it arrived while the bus was down), with no estimate anywhere.
func TestSupervisorRestartsCrashedBus(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	m := specModel(t, model.Spec{Template: tmpl})
	wantB := dedicatedAlerts(t, "fusion/idle/FI-500", "can-b")

	inj := fault.New()
	inj.ArmPanic(fault.EngineFrame, "can-a", 700, 1)
	newEngine := func(channel string) (*engine.Engine, error) {
		return engine.NewFromModel(engine.Config{Fault: inj, FaultScope: channel}, m)
	}
	var restartedCh string
	var restartedAttempt int
	got, stats, health, _, runErr := faultFleet(t, func(cfg *engine.SupervisorConfig) {
		cfg.NewEngine = newEngine
		cfg.RestartEngine = func(channel string, attempt int) (*engine.Engine, error) {
			restartedCh, restartedAttempt = channel, attempt
			return newEngine(channel)
		}
	}, func(h engine.BusHealth) bool { return h.Restarts >= 1 && h.State == engine.BusOK })
	if runErr != nil {
		t.Fatalf("Run = %v, want nil (restart should absorb the crash)", runErr)
	}
	if !reflect.DeepEqual(got["can-b"], wantB) {
		t.Errorf("can-b alerts disturbed by can-a crash: got %d, want %d", len(got["can-b"]), len(wantB))
	}
	if restartedCh != "can-a" || restartedAttempt != 1 {
		t.Errorf("restart factory called with (%q, %d), want (can-a, 1)", restartedCh, restartedAttempt)
	}

	hA, hB := health["can-a"], health["can-b"]
	if hA.State != engine.BusOK || hA.Restarts != 1 {
		t.Errorf("can-a health = %+v, want ok with 1 restart", hA)
	}
	if hA.LastError == "" || !strings.Contains(hA.LastError, "panic") {
		t.Errorf("can-a last error %q does not record the panic", hA.LastError)
	}
	if hB.State != engine.BusOK || hB.Restarts != 0 || hB.Lost != 0 {
		t.Errorf("can-b health = %+v, want undisturbed", hB)
	}

	// Exact reconciliation, both buses: accepted == consumed + lost.
	for _, ch := range []string{"can-a", "can-b"} {
		h, st := health[ch], stats[ch]
		if h.Accepted != st.Frames+st.Lost {
			t.Errorf("%s: accepted %d != frames %d + lost %d", ch, h.Accepted, st.Frames, st.Lost)
		}
		if h.Lost != st.Lost {
			t.Errorf("%s: health lost %d != stats lost %d", ch, h.Lost, st.Lost)
		}
	}
	busLen := uint64(len(scenarioTrace(t, "fusion/idle/FI-500")))
	if health["can-b"].Accepted != busLen || stats["can-b"].Frames != busLen {
		t.Errorf("can-b accounting %d/%d, want all %d frames consumed",
			health["can-b"].Accepted, stats["can-b"].Frames, busLen)
	}
	// The crashed incarnation consumed exactly 700 records (the
	// panicking one included); the sum across incarnations must keep
	// them.
	if stats["can-a"].Frames < 700 {
		t.Errorf("can-a frames %d, want >= 700 (crashed incarnation's count kept)", stats["can-a"].Frames)
	}
}

// isDead is faultFleet's hold for tests that drive can-a to its death.
func isDead(h engine.BusHealth) bool { return h.State == engine.BusDead }

// TestSupervisorDeadBus: a bus whose restart budget is exhausted goes
// dead and drains — the fleet keeps serving, the other bus's stream is
// untouched, and the dead bus's accounting stays exact.
func TestSupervisorDeadBus(t *testing.T) {
	wantB := dedicatedAlerts(t, "fusion/idle/FI-500", "can-b")
	_, tmpl, _ := loadFixture(t)
	m := specModel(t, model.Spec{Template: tmpl})

	inj := fault.New()
	inj.ArmPanic(fault.EngineFrame, "can-a", 300, 0) // every record from 300 on
	var busErrs []string
	got, stats, health, _, runErr := faultFleet(t, func(cfg *engine.SupervisorConfig) {
		cfg.NewEngine = func(channel string) (*engine.Engine, error) {
			return engine.NewFromModel(engine.Config{Fault: inj, FaultScope: channel}, m)
		}
		cfg.MaxRestarts = 2
		cfg.OnBusError = func(channel string, err error, willRestart bool) {
			busErrs = append(busErrs, channel)
		}
	}, isDead)
	if runErr == nil || !strings.Contains(runErr.Error(), `bus "can-a"`) || !strings.Contains(runErr.Error(), "dead") {
		t.Fatalf("Run = %v, want dead-bus error naming can-a", runErr)
	}
	if !reflect.DeepEqual(got["can-b"], wantB) {
		t.Errorf("can-b alerts disturbed by can-a death: got %d, want %d", len(got["can-b"]), len(wantB))
	}
	hA := health["can-a"]
	if hA.State != engine.BusDead || hA.Restarts != 2 {
		t.Errorf("can-a health = %+v, want dead after 2 restarts", hA)
	}
	if hA.Lost == 0 {
		t.Error("dead bus lost no frames — drain accounting missing")
	}
	if hA.Accepted != stats["can-a"].Frames+stats["can-a"].Lost {
		t.Errorf("can-a: accepted %d != frames %d + lost %d",
			hA.Accepted, stats["can-a"].Frames, stats["can-a"].Lost)
	}
	// Crash + 2 failed incarnations = at least 3 error callbacks, all
	// for can-a.
	if len(busErrs) < 3 {
		t.Errorf("OnBusError fired %d times, want >= 3", len(busErrs))
	}
	for _, ch := range busErrs {
		if ch != "can-a" {
			t.Errorf("OnBusError fired for %q", ch)
		}
	}
	if health["can-b"].State != engine.BusOK {
		t.Errorf("can-b health = %+v", health["can-b"])
	}
}

// TestSupervisorRestartFactoryError: a restart factory that itself
// fails burns budget but does not wedge the loop — the bus retries and
// eventually dies cleanly.
func TestSupervisorRestartFactoryError(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	m := specModel(t, model.Spec{Template: tmpl})
	inj := fault.New()
	inj.ArmPanic(fault.EngineFrame, "can-a", 100, 1)
	_, _, health, _, runErr := faultFleet(t, func(cfg *engine.SupervisorConfig) {
		cfg.NewEngine = func(channel string) (*engine.Engine, error) {
			return engine.NewFromModel(engine.Config{Fault: inj, FaultScope: channel}, m)
		}
		cfg.MaxRestarts = 2
		cfg.RestartEngine = func(channel string, attempt int) (*engine.Engine, error) {
			return nil, errors.New("store offline")
		}
	}, isDead)
	if runErr == nil || !strings.Contains(runErr.Error(), "dead") {
		t.Fatalf("Run = %v, want dead bus", runErr)
	}
	hA := health["can-a"]
	if hA.State != engine.BusDead || hA.Restarts != 2 {
		t.Errorf("can-a health = %+v, want dead after 2 attempts", hA)
	}
	if !strings.Contains(hA.LastError, "store offline") {
		t.Errorf("last error %q does not surface the factory failure", hA.LastError)
	}
}

// TestStatsLostDirectRun: an engine run directly (no supervisor) never
// reports lost frames.
func TestStatsLostDirectRun(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/clean")
	eng := newEngine(t, engine.Config{}, model.Spec{Template: tmpl})
	if _, _, err := eng.Detect(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Lost; got != 0 {
		t.Errorf("Lost = %d on a direct run", got)
	}
}

// fleetWant is each fleetBuses vehicle's undisturbed alert stream: a
// dedicated engine serving the model on that vehicle alone.
func fleetWant(t *testing.T, m *model.Model, buses map[string]trace.Trace) map[string][]detect.Alert {
	t.Helper()
	want := make(map[string][]detect.Alert)
	for ch, tr := range buses {
		eng, err := engine.NewFromModel(engine.Config{}, m)
		if err != nil {
			t.Fatal(err)
		}
		if want[ch], _, err = eng.Detect(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// runWithin runs the supervisor and fails the test if Run does not
// return within the deadline — a wedged host must not hang the suite.
func runWithin(t *testing.T, sup *engine.Supervisor, src engine.Source, sink func(string, detect.Alert)) (map[string]engine.Stats, error) {
	t.Helper()
	type result struct {
		stats map[string]engine.Stats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := sup.Run(context.Background(), src, sink)
		done <- result{stats, err}
	}()
	select {
	case r := <-done:
		return r.stats, r.err
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return")
		return nil, nil
	}
}

// TestSupervisorSinkPanic: a sink that panics on one vehicle's third
// alert fails only the host serving it, in classic and fleet mode.
// With restarts disabled that host ends dead, having emitted a prefix
// of its undisturbed streams; every vehicle on a live host emits
// exactly its undisturbed stream — the panic must not leave the shared
// sink lock held.
func TestSupervisorSinkPanic(t *testing.T) {
	m := fleetModel(t)
	buses, mixed := fleetBuses(t)
	want := fleetWant(t, m, buses)
	for _, mode := range []string{"classic", "fleet"} {
		t.Run(mode, func(t *testing.T) {
			cfg := engine.SupervisorConfig{MaxRestarts: -1}
			if mode == "fleet" {
				cfg.Fleet = &engine.FleetConfig{Engines: 2, Model: m}
			} else {
				cfg.NewEngine = func(string) (*engine.Engine, error) {
					return engine.NewFromModel(engine.Config{}, m)
				}
			}
			sup, err := engine.NewSupervisor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string][]detect.Alert)
			n := 0
			stats, err := runWithin(t, sup, engine.NewSliceSource(mixed), func(ch string, a detect.Alert) {
				if ch == "veh-01" {
					if n++; n == 3 {
						panic("sink failure")
					}
				}
				got[ch] = append(got[ch], a)
			})
			if err == nil || !strings.Contains(err.Error(), "dead") {
				t.Errorf("Run = %v, want the dead host's error", err)
			}
			health := sup.Health()
			if health["veh-01"].State != engine.BusDead {
				t.Errorf("veh-01 health = %+v, want dead", health["veh-01"])
			}
			live := 0
			for ch, w := range want {
				h, st := health[ch], stats[ch]
				if h.Accepted != uint64(len(buses[ch])) || st.Frames+st.Lost != h.Accepted {
					t.Errorf("%s: accepted %d, frames %d + lost %d, want %d", ch, h.Accepted, st.Frames, st.Lost, len(buses[ch]))
				}
				if h.State == engine.BusDead {
					if len(got[ch]) > len(w) || !reflect.DeepEqual(got[ch], w[:len(got[ch])]) {
						t.Errorf("%s: dead host emitted %d alerts that are not a prefix of its %d", ch, len(got[ch]), len(w))
					}
					continue
				}
				live++
				if !reflect.DeepEqual(got[ch], w) {
					t.Errorf("%s: alerts disturbed by veh-01's sink panic (got %d, want %d)", ch, len(got[ch]), len(w))
				}
			}
			if mode == "classic" && live != len(want)-1 || live == 0 {
				t.Errorf("%d vehicles on live hosts", live)
			}
		})
	}
}

// slabSource is a BatchSource over an in-memory trace in fixed-size
// slabs.
type slabSource struct {
	tr   trace.Trace
	size int
}

func (s *slabSource) NextBatch() ([]trace.Record, error) {
	if len(s.tr) == 0 {
		return nil, io.EOF
	}
	n := min(s.size, len(s.tr))
	b := s.tr[:n]
	s.tr = s.tr[n:]
	return b, nil
}

func (s *slabSource) Next() (trace.Record, error) {
	if len(s.tr) == 0 {
		return trace.Record{}, io.EOF
	}
	r := s.tr[0]
	s.tr = s.tr[1:]
	return r, nil
}

// TestFleetHostFailure: a fleet host whose sink panics once mid-slab
// restarts with an empty lane table. Accounting stays exact on every
// vehicle — frames + lost == input == accepted, the in-flight remainder
// of the failed slab included — and the vehicles on the other host are
// bit-identical to an undisturbed run.
func TestFleetHostFailure(t *testing.T) {
	m := fleetModel(t)
	buses, mixed := fleetBuses(t)
	want := fleetWant(t, m, buses)
	sup, err := engine.NewSupervisor(engine.SupervisorConfig{
		Fleet:          &engine.FleetConfig{Engines: 2, Model: m},
		RestartBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]detect.Alert)
	n := 0
	stats, err := runWithin(t, sup, &slabSource{tr: mixed, size: 256}, func(ch string, a detect.Alert) {
		if ch == "veh-01" {
			if n++; n == 3 {
				panic("sink failure")
			}
		}
		got[ch] = append(got[ch], a)
	})
	// A stream that ends while the host waits out its backoff reports
	// the crash; any other error is a failure.
	var perr *engine.PanicError
	if err != nil && !errors.As(err, &perr) {
		t.Fatalf("Run = %v", err)
	}
	health := sup.Health()
	if health["veh-01"].Restarts == 0 {
		t.Errorf("veh-01 health = %+v, want its host restarted", health["veh-01"])
	}
	undisturbed := 0
	for ch, tr := range buses {
		h, st := health[ch], stats[ch]
		if h.Accepted != uint64(len(tr)) || st.Frames+st.Lost != uint64(len(tr)) {
			t.Errorf("%s: accepted %d, frames %d + lost %d, want %d", ch, h.Accepted, st.Frames, st.Lost, len(tr))
		}
		if h.Restarts > 0 {
			continue
		}
		undisturbed++
		if !reflect.DeepEqual(got[ch], want[ch]) {
			t.Errorf("%s: alerts disturbed by the other host's failure (got %d, want %d)", ch, len(got[ch]), len(want[ch]))
		}
	}
	if undisturbed == 0 {
		t.Error("every vehicle shares the failed host; isolation is untested")
	}
}
