package engine_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/gateway"
	"canids/internal/model"
	"canids/internal/response"
	"canids/internal/trace"
)

// fleetModel freezes the fixture template into a detection-only fleet
// model.
func fleetModel(t *testing.T) *model.Model {
	t.Helper()
	_, tmpl, _ := loadFixture(t)
	return specModel(t, model.Spec{Template: tmpl})
}

// preventionModel freezes a full prevention model: tight budgets on the
// injected ID so the attack visibly hits rate limits, plus the response
// policy over the scenario's legal pool.
func preventionModel(t *testing.T, pool []can.ID) *model.Model {
	t.Helper()
	_, tmpl, _ := loadFixture(t)
	gp, err := gateway.NewPolicy(gateway.Config{
		RateWindow: detectorConfig().Window,
		Budgets:    map[can.ID]int{0x0B5: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rc := response.DefaultConfig(pool)
	m, err := model.New(model.Spec{
		Epoch: 1, Core: detectorConfig(), Template: tmpl, Pool: pool,
		Gateway: gp, Response: &rc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fleetBuses builds N per-vehicle traces (copies of the two fixture
// scenarios under distinct channel names) plus the interleaved stream.
func fleetBuses(t *testing.T) (map[string]trace.Trace, trace.Trace) {
	t.Helper()
	buses := map[string]trace.Trace{
		"veh-00": retag(scenarioTrace(t, "fusion/idle/SI-100"), "veh-00"),
		"veh-01": retag(scenarioTrace(t, "fusion/idle/FI-500"), "veh-01"),
		"veh-02": retag(scenarioTrace(t, "fusion/idle/SI-100"), "veh-02"),
		"veh-03": retag(scenarioTrace(t, "fusion/idle/clean"), "veh-03"),
		"veh-04": retag(scenarioTrace(t, "fusion/idle/FI-500"), "veh-04"),
	}
	all := make([]trace.Trace, 0, len(buses))
	for _, tr := range buses {
		all = append(all, tr)
	}
	return buses, interleave(all...)
}

// TestFleetMatchesDedicatedEngines is the fleet acceptance criterion:
// five vehicles multiplexed over two host engines produce, per vehicle,
// the exact alert stream a dedicated engine produces on that vehicle
// alone (the engine's own equivalence to the sequential detector closes
// the triangle). The comparison runs once per value of the deprecated,
// ignored Config.Shards (1, 2, 8), which must not change the result.
func TestFleetMatchesDedicatedEngines(t *testing.T) {
	m := fleetModel(t)
	buses, mixed := fleetBuses(t)

	sup, err := engine.NewSupervisor(engine.SupervisorConfig{
		Fleet: &engine.FleetConfig{Engines: 2, Model: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]detect.Alert)
	stats, err := sup.Run(context.Background(), engine.NewSliceSource(mixed), func(ch string, a detect.Alert) {
		got[ch] = append(got[ch], a)
	})
	if err != nil {
		t.Fatal(err)
	}

	// The deprecated Shards field is still set by older callers; every
	// value must leave the dedicated engine's stream unchanged.
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for ch, tr := range buses {
				eng, err := engine.NewFromModel(engine.Config{Shards: shards}, m)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := eng.Detect(context.Background(), tr)
				if err != nil {
					t.Fatal(err)
				}
				if ch != "veh-03" && len(want) == 0 {
					t.Fatalf("%s: dedicated engine found no alerts; scenario too weak", ch)
				}
				if !reflect.DeepEqual(got[ch], want) {
					t.Errorf("%s: fleet alerts differ from dedicated engine (got %d, want %d)",
						ch, len(got[ch]), len(want))
				}
			}
		})
	}
	for ch, tr := range buses {
		if stats[ch].Frames != uint64(len(tr)) {
			t.Errorf("%s: frames %d, want %d", ch, stats[ch].Frames, len(tr))
		}
	}
	if m2 := sup.FleetModel(); m2 != m {
		t.Error("FleetModel does not return the installed model")
	}
}

// TestFleetPreventionMatchesDedicated runs the full prevention loop in
// fleet mode: each vehicle's drop counters and alert stream match its
// dedicated-engine run under the same immutable model.
func TestFleetPreventionMatchesDedicated(t *testing.T) {
	pool := scenarioLegalPool(t, "fusion/idle/SI-100")
	m := preventionModel(t, pool)
	buses, mixed := fleetBuses(t)

	sup, err := engine.NewSupervisor(engine.SupervisorConfig{
		Fleet: &engine.FleetConfig{Engines: 3, Model: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]detect.Alert)
	stats, err := sup.Run(context.Background(), engine.NewSliceSource(mixed), func(ch string, a detect.Alert) {
		got[ch] = append(got[ch], a)
	})
	if err != nil {
		t.Fatal(err)
	}

	var anyDropped bool
	for ch, tr := range buses {
		eng, err := engine.NewFromModel(engine.Config{}, m)
		if err != nil {
			t.Fatal(err)
		}
		want, st, err := eng.Detect(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[ch], want) {
			t.Errorf("%s: fleet alerts differ from dedicated prevention engine (got %d, want %d)",
				ch, len(got[ch]), len(want))
		}
		if stats[ch].Dropped != st.Dropped || stats[ch].DroppedInjected != st.DroppedInjected {
			t.Errorf("%s: fleet dropped %d/%d, dedicated %d/%d",
				ch, stats[ch].Dropped, stats[ch].DroppedInjected, st.Dropped, st.DroppedInjected)
		}
		anyDropped = anyDropped || st.Dropped > 0
	}
	if !anyDropped {
		t.Error("budgets dropped nothing anywhere; prevention parity is vacuous")
	}
}

// TestFleetSwapModelLandsEverywhere swaps the fleet model mid-stream
// (via the demux tap, a deterministic stream position) and demands
// every lane converge to the new epoch by the end of the run.
func TestFleetSwapModelLandsEverywhere(t *testing.T) {
	m := fleetModel(t)
	_, mixed := fleetBuses(t)
	next := m.WithEpoch(2)

	var once sync.Once
	var sup *engine.Supervisor
	var err error
	n := 0
	cfg := engine.SupervisorConfig{
		Fleet: &engine.FleetConfig{Engines: 2, Model: m},
		Tap: func(ch string, recs []trace.Record) {
			if n++; n > 50 {
				once.Do(func() {
					if err := sup.SwapModel(next); err != nil {
						t.Errorf("SwapModel: %v", err)
					}
				})
			}
		},
	}
	sup, err = engine.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Run(context.Background(), engine.NewSliceSource(mixed), func(string, detect.Alert) {}); err != nil {
		t.Fatal(err)
	}
	for ch, h := range sup.Health() {
		if h.Epoch != 2 {
			t.Errorf("%s: epoch %d after fleet-wide swap, want 2", ch, h.Epoch)
		}
	}
	// Structural mismatches must be rejected up front.
	bad := preventionModel(t, scenarioLegalPool(t, "fusion/idle/SI-100"))
	if err := sup.SwapModel(bad); err == nil {
		t.Error("fleet swap accepted a model with mismatched policy structure")
	}
	if err := sup.SwapModel(nil); err == nil {
		t.Error("fleet swap accepted nil")
	}
}

// TestSwapRejectsIncompatibleModels pins the one compatibility rule on
// both boundary swap paths, Engine.Swap and Supervisor.SwapModel: a
// model with another gateway rate window — which would land against the
// lane's open rate phase and the fleet's stored teardown phases — is
// refused up front, as are core-config drift and a change of policy
// presence; a model that only retunes budgets is accepted.
func TestSwapRejectsIncompatibleModels(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	pool := scenarioLegalPool(t, "fusion/idle/SI-100")
	base := preventionModel(t, pool)
	w := detectorConfig().Window
	variant := func(cfg core.Config, gc gateway.Config) *model.Model {
		gp, err := gateway.NewPolicy(gc)
		if err != nil {
			t.Fatal(err)
		}
		rc := response.DefaultConfig(pool)
		m, err := model.New(model.Spec{Epoch: 2, Core: cfg, Template: tmpl, Pool: pool, Gateway: gp, Response: &rc})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	drifted := detectorConfig()
	drifted.Alpha = 6
	budgets := map[can.ID]int{0x0B5: 2}
	for _, tc := range []struct {
		name string
		next *model.Model
		ok   bool
	}{
		{"budgets retuned", variant(detectorConfig(), gateway.Config{RateWindow: w, Budgets: map[can.ID]int{0x0B5: 5}}), true},
		{"rate window", variant(detectorConfig(), gateway.Config{RateWindow: 2 * w, Budgets: budgets}), false},
		{"core config", variant(drifted, gateway.Config{RateWindow: w, Budgets: budgets}), false},
		{"policy dropped", specModel(t, model.Spec{Template: tmpl}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := engine.NewFromModel(engine.Config{}, base)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Swap(tc.next); (err == nil) != tc.ok {
				t.Errorf("Engine.Swap = %v, want accepted=%v", err, tc.ok)
			}
			sup, err := engine.NewSupervisor(engine.SupervisorConfig{Fleet: &engine.FleetConfig{Engines: 1, Model: base}})
			if err != nil {
				t.Fatal(err)
			}
			if err := sup.SwapModel(tc.next); (err == nil) != tc.ok {
				t.Errorf("Supervisor.SwapModel = %v, want accepted=%v", err, tc.ok)
			}
			if want := map[bool]*model.Model{true: tc.next, false: base}[tc.ok]; sup.FleetModel() != want {
				t.Errorf("fleet serves epoch %d after the swap, want %d", sup.FleetModel().Epoch(), want.Epoch())
			}
		})
	}
}

// TestFleetIdleTeardownLifecycle: a vehicle that goes silent is torn
// down after IdleAfter of stream time (visible as "idle" in Health) and
// respun on its next frame — with window phase, and therefore its alert
// stream, preserved exactly: the gappy vehicle's alerts still match a
// dedicated engine fed the same gappy trace.
func TestFleetIdleTeardownLifecycle(t *testing.T) {
	m := fleetModel(t)
	si := scenarioTrace(t, "fusion/idle/SI-100")

	// Vehicle A: the first 2s, a 18s silence, then the rest shifted to
	// resume at t=20s. Vehicle B: continuous for 22s (loop the capture).
	var busA trace.Trace
	var cut time.Duration = 2 * time.Second
	for _, r := range si {
		if r.Time < cut {
			busA = append(busA, r)
		}
	}
	for _, r := range si {
		if r.Time >= cut && r.Time < 4*time.Second {
			r.Time += 18 * time.Second
			busA = append(busA, r)
		}
	}
	busA = retag(busA, "veh-gappy")
	var busB trace.Trace
	for loop := time.Duration(0); loop < 22*time.Second; loop += 10 * time.Second {
		for _, r := range si {
			if r.Time+loop < 22*time.Second {
				r.Time += loop
				busB = append(busB, r)
			}
		}
	}
	busB = retag(busB, "veh-busy")
	mixed := interleave(busA, busB)

	var sup *engine.Supervisor
	sawIdle := false
	cfg := engine.SupervisorConfig{
		Fleet: &engine.FleetConfig{Engines: 1, Model: m, IdleAfter: 5 * time.Second},
		Tap: func(ch string, recs []trace.Record) {
			if !sawIdle && sup != nil {
				if h := sup.Health()["veh-gappy"]; h.State == engine.BusIdle {
					sawIdle = true
				}
			}
		},
	}
	var err error
	sup, err = engine.NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]detect.Alert)
	_, err = sup.Run(context.Background(), engine.NewSliceSource(mixed), func(ch string, a detect.Alert) {
		got[ch] = append(got[ch], a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawIdle {
		t.Error("veh-gappy never reported idle during its silence")
	}
	if st := sup.Health()["veh-gappy"].State; st != engine.BusOK {
		t.Errorf("veh-gappy state %q after respin, want %q", st, engine.BusOK)
	}

	eng, err := engine.NewFromModel(engine.Config{}, m)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := eng.Detect(context.Background(), busA)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("gappy trace produced no alerts; teardown parity is vacuous")
	}
	if !reflect.DeepEqual(got["veh-gappy"], want) {
		t.Errorf("teardown+respin changed the alert stream (got %d, want %d)",
			len(got["veh-gappy"]), len(want))
	}
}

// TestFleetQuotaShedsDeterministically: with a per-vehicle ingest quota,
// overflow records are shed at the demux on record timestamps — the same
// records every run — so two runs agree bit for bit on alerts and on the
// shed count, and the counters reconcile (accepted = frames, shed kept
// separate).
func TestFleetQuotaShedsDeterministically(t *testing.T) {
	m := fleetModel(t)
	_, mixed := fleetBuses(t)

	run := func() (map[string][]detect.Alert, map[string]engine.Stats, map[string]engine.BusHealth) {
		sup, err := engine.NewSupervisor(engine.SupervisorConfig{
			Fleet:       &engine.FleetConfig{Engines: 2, Model: m},
			QuotaFrames: 120,
			QuotaWindow: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string][]detect.Alert)
		stats, err := sup.Run(context.Background(), engine.NewSliceSource(mixed), func(ch string, a detect.Alert) {
			got[ch] = append(got[ch], a)
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, stats, sup.Health()
	}

	got1, stats1, health1 := run()
	got2, stats2, _ := run()
	if !reflect.DeepEqual(got1, got2) {
		t.Error("quota shedding is not deterministic: alert streams differ across runs")
	}
	var shed uint64
	for ch, st := range stats1 {
		shed += st.Shed
		if st.Shed != stats2[ch].Shed {
			t.Errorf("%s: shed %d vs %d across runs", ch, st.Shed, stats2[ch].Shed)
		}
		if health1[ch].Shed != st.Shed {
			t.Errorf("%s: health shed %d != stats shed %d", ch, health1[ch].Shed, st.Shed)
		}
		if health1[ch].Accepted != st.Frames+st.Lost {
			t.Errorf("%s: accepted %d != frames %d + lost %d", ch, health1[ch].Accepted, st.Frames, st.Lost)
		}
	}
	if shed == 0 {
		t.Error("quota shed nothing; the cap is above every vehicle's rate")
	}
}

// laggingReference is the fleet's lagging-clock teardown rule for one
// vehicle, written as a sequential loop: records arrive in slabs of the
// given size, and after each slab the vehicle is torn down when its
// newest record is idleAfter or more behind the newest record of any
// vehicle. A teardown flushes the open window and keeps the window
// phase, the rate phase and the quarantines; the next record respins a
// fresh detector, gateway and responder that resume them.
func laggingReference(t *testing.T, m *model.Model, mixed trace.Trace, slab int, ch string,
	idleAfter time.Duration) (alerts []detect.Alert, dropped, teardowns int) {
	t.Helper()
	w, rw := m.Core().Window, m.Gateway().RateWindow()
	var (
		det        *core.Detector
		gw         *gateway.Gateway
		resp       *response.Responder
		origin     time.Duration // the window grid: first forwarded record
		haveOrigin bool
		rateStart  time.Duration
		haveRate   bool
		quar       map[can.ID]time.Duration
		lastSeen   time.Duration
		down       bool
	)
	emit := func(as []detect.Alert) {
		for _, a := range as {
			if _, err := resp.HandleAlert(a); err != nil {
				t.Fatal(err)
			}
			alerts = append(alerts, a)
		}
	}
	newest := time.Duration(math.MinInt64)
	for len(mixed) > 0 {
		n := min(slab, len(mixed))
		for _, r := range mixed[:n] {
			newest = max(newest, r.Time)
			if r.Channel != ch {
				continue
			}
			lastSeen, down = r.Time, false
			if det == nil {
				det = core.MustNew(m.Core())
				if err := det.SetTemplate(m.Template()); err != nil {
					t.Fatal(err)
				}
				gw = gateway.NewWithPolicy(m.Gateway())
				gw.RestoreQuarantines(quar)
				if haveRate {
					if detect.WindowExpired(rateStart, r.Time, rw) {
						rateStart = detect.NextWindowStart(rateStart, r.Time, rw)
					}
					gw.SeedRateWindow(rateStart)
				}
				var err error
				if resp, err = response.New(gw, *m.Response()); err != nil {
					t.Fatal(err)
				}
				if haveOrigin {
					det.SeedWindow(origin + (r.Time-origin)/w*w)
				}
			}
			if gw.Classify(r) != gateway.Forward {
				dropped++
				continue
			}
			if !haveOrigin {
				origin, haveOrigin = r.Time, true
			}
			emit(det.Observe(r))
		}
		mixed = mixed[n:]
		if det != nil && !down && detect.WindowExpired(lastSeen, newest, idleAfter) {
			emit(det.Flush())
			rateStart, haveRate = gw.RateWindowStart()
			quar = gw.Quarantines()
			det, down = nil, true
			teardowns++
		}
	}
	if det != nil {
		emit(det.Flush())
	}
	return alerts, dropped, teardowns
}

// TestFleetLaggingClockTeardown pins the documented clock-skew caveat
// as a contract. veh-lag stamps its records 3s behind the shared clock
// the other vehicle keeps; with IdleAfter 2s the demux tears its lane
// down after every input slab it appears in. The teardown lands at the
// same stream position on every run, the respun lane resumes the stored
// window and rate phases and its quarantines (its alerts and drops
// equal laggingReference's, and every alert sits on the vehicle's own
// window grid), the accounting reconciles, and the leading vehicle is
// undisturbed. The lagging vehicle's stream is not a dedicated
// engine's: windows that span a slab edge are scored in pieces.
func TestFleetLaggingClockTeardown(t *testing.T) {
	const lag, idleAfter, slab = 3 * time.Second, 2 * time.Second, 700
	// A budget well below 0x08D's 100 frames per window keeps rate drops
	// coming within each slab's piece of the stream (a respun lane's
	// rate counts start from zero), so the rate phase shows in the
	// drops.
	_, tmpl, _ := loadFixture(t)
	pool := scenarioLegalPool(t, "fusion/idle/SI-100")
	gp, err := gateway.NewPolicy(gateway.Config{RateWindow: detectorConfig().Window, Budgets: map[can.ID]int{0x08D: 20}})
	if err != nil {
		t.Fatal(err)
	}
	rc := response.DefaultConfig(pool)
	m, err := model.New(model.Spec{Epoch: 1, Core: detectorConfig(), Template: tmpl, Pool: pool, Gateway: gp, Response: &rc})
	if err != nil {
		t.Fatal(err)
	}
	lead := retag(scenarioTrace(t, "fusion/idle/clean"), "veh-lead")
	lagging := retag(scenarioTrace(t, "fusion/idle/SI-100"), "veh-lag")
	// Records arrive in the order of the shared clock; veh-lag's own
	// stamps run lag behind it.
	mixed := interleave(lead, lagging)
	for i := range mixed {
		if mixed[i].Channel == "veh-lag" {
			mixed[i].Time -= lag
		}
	}
	for i := range lagging {
		lagging[i].Time -= lag
	}

	run := func() (map[string][]detect.Alert, map[string]engine.Stats, map[string]engine.BusHealth) {
		sup, err := engine.NewSupervisor(engine.SupervisorConfig{
			Fleet: &engine.FleetConfig{Engines: 1, Model: m, IdleAfter: idleAfter},
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string][]detect.Alert)
		stats, err := runWithin(t, sup, &slabSource{tr: mixed, size: slab}, func(ch string, a detect.Alert) {
			got[ch] = append(got[ch], a)
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, stats, sup.Health()
	}
	got, stats, health := run()
	got2, stats2, _ := run()
	if !reflect.DeepEqual(got, got2) || !reflect.DeepEqual(stats, stats2) {
		t.Error("lagging-clock teardowns are not deterministic: alerts or stats differ across runs")
	}

	want, wantDropped, teardowns := laggingReference(t, m, mixed, slab, "veh-lag", idleAfter)
	if teardowns < 2 {
		t.Fatalf("reference tore veh-lag down %d times; the lag does not exercise the caveat", teardowns)
	}
	if len(want) == 0 || wantDropped == 0 {
		t.Fatalf("reference run has %d alerts and %d drops; the contract is vacuous", len(want), wantDropped)
	}
	t.Logf("veh-lag: %d teardowns, %d windows, %d alerts, %d drops", teardowns, stats["veh-lag"].Windows, len(want), wantDropped)
	if !reflect.DeepEqual(got["veh-lag"], want) {
		t.Errorf("veh-lag alerts differ from the teardown reference (got %d, want %d)", len(got["veh-lag"]), len(want))
	}
	if st := stats["veh-lag"]; st.Dropped != uint64(wantDropped) {
		t.Errorf("veh-lag dropped %d, reference dropped %d", st.Dropped, wantDropped)
	}
	origin, w := lagging[0].Time, m.Core().Window
	for _, a := range got["veh-lag"] {
		if (a.WindowStart-origin)%w != 0 {
			t.Errorf("alert window %v is off veh-lag's window grid from %v", a.WindowStart, origin)
		}
	}

	dedicated := func(tr trace.Trace) ([]detect.Alert, engine.Stats) {
		eng, err := engine.NewFromModel(engine.Config{}, m)
		if err != nil {
			t.Fatal(err)
		}
		alerts, st, err := eng.Detect(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		return alerts, st
	}
	if alone, st := dedicated(lagging); reflect.DeepEqual(got["veh-lag"], alone) || stats["veh-lag"].Windows <= st.Windows {
		t.Errorf("veh-lag closed %d windows (dedicated %d) with %s alert stream; the teardowns left no trace",
			stats["veh-lag"].Windows, st.Windows, map[bool]string{true: "the dedicated", false: "a different"}[reflect.DeepEqual(got["veh-lag"], alone)])
	}
	if alone, _ := dedicated(lead); !reflect.DeepEqual(got["veh-lead"], alone) {
		t.Errorf("veh-lead alerts disturbed by the lagging vehicle (got %d, want %d)", len(got["veh-lead"]), len(alone))
	}

	for ch, n := range map[string]int{"veh-lead": len(lead), "veh-lag": len(lagging)} {
		h, st := health[ch], stats[ch]
		if h.Accepted != st.Frames+st.Lost || uint64(n) != st.Frames+st.Lost+st.Shed {
			t.Errorf("%s: accepted %d, frames %d + lost %d + shed %d, input %d", ch, h.Accepted, st.Frames, st.Lost, st.Shed, n)
		}
	}
}
