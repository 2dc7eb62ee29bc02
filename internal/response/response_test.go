package response

import (
	"errors"
	"math"
	"testing"
	"time"

	"canids/internal/attack"
	"canids/internal/bus"
	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/gateway"
	"canids/internal/sim"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

func newGateway(t *testing.T) *gateway.Gateway {
	t.Helper()
	g, err := gateway.New(gateway.DefaultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	gw := newGateway(t)
	if _, err := New(nil, DefaultConfig([]can.ID{1})); !errors.Is(err, ErrNoGateway) {
		t.Errorf("nil gateway: %v", err)
	}
	if _, err := New(gw, DefaultConfig(nil)); !errors.Is(err, ErrNoPool) {
		t.Errorf("empty pool: %v", err)
	}
	cfg := DefaultConfig([]can.ID{1})
	cfg.BlockTop = 20
	if _, err := New(gw, cfg); err == nil {
		t.Error("BlockTop > Rank should fail")
	}
}

func TestDefaultsApplied(t *testing.T) {
	gw := newGateway(t)
	r, err := New(gw, Config{Pool: []can.ID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := r.Config(); cfg.Width != 11 || cfg.Rank != 10 || cfg.BlockTop != 1 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

// TestNormalizeSharesIndex: re-normalizing a normalized policy — every
// responder built from one model, every policy swap to it — keeps its
// inference index; a different pool or width gets its own.
func TestNormalizeSharesIndex(t *testing.T) {
	cfg, err := DefaultConfig([]can.ID{0x0B5, 0x100, 0x200}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.index == nil {
		t.Fatal("Normalize built no index")
	}
	again, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(newGateway(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.index != cfg.index || r.Config().index != cfg.index {
		t.Error("re-normalizing rebuilt the index")
	}
	other := cfg
	other.Pool = []can.ID{0x0B5, 0x100}
	if other, err = other.Normalize(); err != nil {
		t.Fatal(err)
	}
	wide := cfg
	wide.Width = 29
	if wide, err = wide.Normalize(); err != nil {
		t.Fatal(err)
	}
	if other.index == cfg.index || wide.index == cfg.index {
		t.Error("a different pool or width kept the old index")
	}
}

// fabricatedAlert mimics a single-ID injection of `id`.
func fabricatedAlert(id can.ID, score float64) detect.Alert {
	a := detect.Alert{
		Score:       score,
		WindowStart: 2 * time.Second,
		WindowEnd:   3 * time.Second,
	}
	for i := 1; i <= 11; i++ {
		dp := 0.05
		if id.Bit(i, 11) == 0 {
			dp = -0.05
		}
		a.Bits = append(a.Bits, detect.BitDeviation{
			Bit: i, DeltaP: dp, Violated: true,
		})
	}
	return a
}

func TestHandleAlertBlocksTopSuspect(t *testing.T) {
	gw := newGateway(t)
	pool := []can.ID{0x0B5, 0x100, 0x200, 0x300}
	cfg := DefaultConfig(pool)
	r, err := New(gw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	act, err := r.HandleAlert(fabricatedAlert(0x0B5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if act == nil || len(act.Blocked) != 1 || act.Blocked[0] != 0x0B5 {
		t.Fatalf("action = %+v, want block of 0B5", act)
	}
	if act.Until != 33*time.Second {
		t.Errorf("Until = %v, want window end + 30s", act.Until)
	}
	// The gateway now drops that ID until quarantine lapses.
	v := gw.Classify(trace.Record{Time: 10 * time.Second, Frame: can.Frame{ID: 0x0B5}})
	if v != gateway.DropBlocked {
		t.Errorf("verdict %v, want drop-blocked", v)
	}
	v = gw.Classify(trace.Record{Time: 40 * time.Second, Frame: can.Frame{ID: 0x0B5}})
	if v != gateway.Forward {
		t.Errorf("post-quarantine verdict %v, want forward", v)
	}
}

// TestHandleAlertSmallPool: BlockTop may exceed what inference can
// return on a small pool; HandleAlert must block what it found instead
// of panicking on the slice bound.
func TestHandleAlertSmallPool(t *testing.T) {
	gw := newGateway(t)
	pool := []can.ID{0x0B5, 0x100}
	cfg := DefaultConfig(pool)
	cfg.BlockTop = 5 // <= Rank (10), > len(pool)
	r, err := New(gw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	act, err := r.HandleAlert(fabricatedAlert(0x0B5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if act == nil || len(act.Blocked) == 0 || len(act.Blocked) > len(pool) {
		t.Fatalf("action = %+v, want 1..%d blocks", act, len(pool))
	}
}

// TestHandleAlertQuarantineSaturates: a window ending at the top of
// the timestamp range must not wrap the quarantine deadline negative
// (which would make the block born-expired).
func TestHandleAlertQuarantineSaturates(t *testing.T) {
	gw := newGateway(t)
	r, err := New(gw, DefaultConfig([]can.ID{0x0B5}))
	if err != nil {
		t.Fatal(err)
	}
	a := fabricatedAlert(0x0B5, 5)
	a.WindowEnd = math.MaxInt64
	act, err := r.HandleAlert(a)
	if err != nil {
		t.Fatal(err)
	}
	if act == nil || act.Until != math.MaxInt64 {
		t.Fatalf("Until = %v, want saturated MaxInt64", act)
	}
	v := gw.Classify(trace.Record{Time: math.MaxInt64 - time.Second, Frame: can.Frame{ID: 0x0B5}})
	if v != gateway.DropBlocked {
		t.Errorf("verdict %v near the top of the range, want drop-blocked", v)
	}
}

func TestHandleAlertScoreFloor(t *testing.T) {
	gw := newGateway(t)
	cfg := DefaultConfig([]can.ID{0x0B5})
	cfg.MinScore = 2
	r, err := New(gw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	act, err := r.HandleAlert(fabricatedAlert(0x0B5, 1))
	if err != nil || act != nil {
		t.Errorf("weak alert should be ignored: %v %v", act, err)
	}
}

// TestEndToEndPrevention wires the full loop on simulated traffic: the
// detector alerts, the responder blocks the inferred ID, and the gateway
// then drops the attack traffic while legitimate frames keep flowing.
func TestEndToEndPrevention(t *testing.T) {
	profile := vehicle.NewFusionProfile(1)

	// Train the detector.
	var windows []trace.Trace
	for si, scen := range vehicle.Scenarios {
		sched := sim.NewScheduler()
		b, err := bus.New(sched, bus.Config{BitRate: bus.DefaultMSCANBitRate})
		if err != nil {
			t.Fatal(err)
		}
		var log trace.Trace
		b.Tap(func(r trace.Record) { log = append(log, r) })
		profile.Attach(sched, b, vehicle.Options{Scenario: scen, Seed: int64(40 + si)})
		if err := sched.RunUntil(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		windows = append(windows, log.Windows(time.Second, false)...)
	}
	cfg := core.DefaultConfig()
	cfg.Alpha = 4
	det := core.MustNew(cfg)
	if err := det.Train(windows); err != nil {
		t.Fatal(err)
	}

	// Attack capture.
	sched := sim.NewScheduler()
	b, err := bus.New(sched, bus.Config{BitRate: bus.DefaultMSCANBitRate})
	if err != nil {
		t.Fatal(err)
	}
	var log trace.Trace
	b.Tap(func(r trace.Record) { log = append(log, r) })
	profile.Attach(sched, b, vehicle.Options{Seed: 50})
	injected := profile.IDSet()[30]
	if _, err := attack.Launch(sched, b, nil, attack.Config{
		Scenario:  attack.Single,
		IDs:       []can.ID{injected},
		Frequency: 100,
		Start:     2 * time.Second,
		Seed:      51,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Online loop: gateway in front, detector behind, responder closing
	// the loop.
	gw, err := gateway.New(gateway.DefaultConfig(profile.IDSet()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := New(gw, DefaultConfig(profile.IDSet()))
	if err != nil {
		t.Fatal(err)
	}

	var blockedAt time.Duration = -1
	var first Action
	injectedDroppedAfterBlock := 0
	injectedForwardedAfterBlock := 0
	for _, r := range log {
		verdict := gw.Classify(r)
		if verdict != gateway.Forward {
			if r.Injected && blockedAt >= 0 && r.Time > blockedAt {
				injectedDroppedAfterBlock++
			}
			continue
		}
		if r.Injected && blockedAt >= 0 && r.Time > blockedAt {
			injectedForwardedAfterBlock++
		}
		for _, a := range det.Observe(r) {
			act, err := resp.HandleAlert(a)
			if err != nil {
				t.Fatal(err)
			}
			if act != nil && blockedAt < 0 {
				blockedAt = r.Time
				first = *act
				first.Blocked = append([]can.ID(nil), act.Blocked...)
			}
		}
	}
	if blockedAt < 0 {
		t.Fatal("responder never acted")
	}
	if !first.Alert.ViolatedBits()[0].Violated {
		t.Error("action should reference the triggering alert")
	}
	if got := first.Blocked[0]; got != injected {
		t.Fatalf("blocked %v, want the injected %v", got, injected)
	}
	if injectedForwardedAfterBlock != 0 {
		t.Errorf("%d injected frames leaked after the block", injectedForwardedAfterBlock)
	}
	if injectedDroppedAfterBlock == 0 {
		t.Error("no injected frames were stopped by the gateway")
	}
}
