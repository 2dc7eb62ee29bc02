package engine_test

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"canids/internal/baseline"
	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/engine/scenario"
	"canids/internal/gateway"
	"canids/internal/response"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

// sortAlertsByMergeOrder orders alerts the way the engine's ordered
// merge does: (WindowEnd, stream rank).
func sortAlertsByMergeOrder(alerts []detect.Alert, baselines []detect.Detector) {
	sort.SliceStable(alerts, func(i, j int) bool {
		if alerts[i].WindowEnd != alerts[j].WindowEnd {
			return alerts[i].WindowEnd < alerts[j].WindowEnd
		}
		return alertRank(alerts[i].Detector, baselines) < alertRank(alerts[j].Detector, baselines)
	})
}

// droppedRec is one gateway drop, as collected for set comparison.
type droppedRec struct {
	rec trace.Record
	v   gateway.Verdict
}

// preventionSetup builds a fresh gateway + responder pair for one run.
// legal == nil disables the whitelist (pure blocklist loop).
func preventionSetup(t *testing.T, legal, pool []can.ID, quarantine time.Duration) (*gateway.Gateway, *response.Responder) {
	t.Helper()
	gw, err := gateway.New(gateway.DefaultConfig(legal))
	if err != nil {
		t.Fatal(err)
	}
	cfg := response.DefaultConfig(pool)
	cfg.Quarantine = quarantine
	resp, err := response.New(gw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gw, resp
}

// scenarioLegalPool returns the profile's legal identifier set for a
// catalogue scenario — the inference pool, and optionally the whitelist.
func scenarioLegalPool(t *testing.T, name string) []can.ID {
	t.Helper()
	specs, _, _ := loadFixture(t)
	spec, ok := scenario.Find(specs, name)
	if !ok {
		t.Fatalf("no scenario %q", name)
	}
	return vehicle.NewFusionProfile(spec.ProfileSeed).IDSet()
}

// sequentialPrevention is the reference semantics the engine must match:
// classify every record in stream order, feed forwarded ones to a
// sequential core.Detector, and hand each alert to the responder before
// touching the next record.
func sequentialPrevention(t *testing.T, tmpl core.Template, legal, pool []can.ID,
	quarantine time.Duration, tr trace.Trace) (alerts []detect.Alert, dropped []droppedRec,
	actions []response.Action, forwarded trace.Trace) {

	t.Helper()
	gw, resp := preventionSetup(t, legal, pool, quarantine)
	det := newSequentialCore(t, tmpl)
	handle := func(as []detect.Alert) {
		for _, a := range as {
			alerts = append(alerts, a)
			if _, err := resp.HandleAlert(a); err != nil {
				t.Fatalf("HandleAlert: %v", err)
			}
		}
	}
	for _, r := range tr {
		if v := gw.Classify(r); v != gateway.Forward {
			dropped = append(dropped, droppedRec{rec: r, v: v})
			continue
		}
		forwarded = append(forwarded, r)
		handle(det.Observe(r))
	}
	handle(det.Flush())
	return alerts, dropped, resp.Actions(), forwarded
}

// enginePrevention runs the engine with the full loop installed and
// collects the alert stream plus the dropped-record set.
func enginePrevention(t *testing.T, tmpl core.Template, legal, pool []can.ID,
	quarantine time.Duration, baselines []detect.Detector,
	tr trace.Trace) ([]detect.Alert, []droppedRec, []response.Action, engine.Stats) {

	t.Helper()
	gw, resp := preventionSetup(t, legal, pool, quarantine)
	var dropped []droppedRec
	cfg := engine.Config{
		Core:      detectorConfig(),
		Baselines: baselines,
		Gateway:   gw,
		Responder: resp,
		OnDrop:    func(r trace.Record, v gateway.Verdict) { dropped = append(dropped, droppedRec{rec: r, v: v}) },
	}
	eng, err := engine.NewTrained(cfg, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	alerts, st, err := eng.Detect(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	return alerts, dropped, resp.Actions(), st
}

// TestEnginePreventionMatchesSequential is the PR's acceptance
// criterion: with blocking enabled, the engine's alert stream, its
// dropped-frame set and the responder's action history are bit-identical
// to the sequential reference loop — the lane responds at every window
// close, so blocks land at the same stream position.
func TestEnginePreventionMatchesSequential(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	cases := []struct {
		scenario   string
		whitelist  bool // arm the legal-set filter too
		quarantine time.Duration
	}{
		{"fusion/idle/SI-100", false, 30 * time.Second},
		{"fusion/idle/SI-100", false, 3 * time.Second}, // quarantine expires mid-run, re-block path
		{"fusion/idle/FI-500", true, 30 * time.Second}, // whitelist stops the changeable-ID flood
		{"fusion/cruise/MI4-50", false, 30 * time.Second},
	}
	for _, tc := range cases {
		tr := scenarioTrace(t, tc.scenario)
		pool := scenarioLegalPool(t, tc.scenario)
		var legal []can.ID
		if tc.whitelist {
			legal = pool
		}
		wantAlerts, wantDropped, wantActions, _ := sequentialPrevention(t, tmpl, legal, pool, tc.quarantine, tr)
		if len(wantDropped) == 0 {
			t.Fatalf("%s: reference loop dropped nothing; scenario too weak to test prevention", tc.scenario)
		}
		gotAlerts, gotDropped, gotActions, st := enginePrevention(t, tmpl, legal, pool, tc.quarantine, nil, tr)
		if !reflect.DeepEqual(gotAlerts, wantAlerts) {
			t.Errorf("%s: alert stream differs from sequential loop (got %d, want %d)",
				tc.scenario, len(gotAlerts), len(wantAlerts))
		}
		if !reflect.DeepEqual(gotDropped, wantDropped) {
			t.Errorf("%s: dropped-frame set differs (got %d, want %d)",
				tc.scenario, len(gotDropped), len(wantDropped))
		}
		if !reflect.DeepEqual(gotActions, wantActions) {
			t.Errorf("%s: responder actions differ (got %d, want %d)",
				tc.scenario, len(gotActions), len(wantActions))
		}
		if st.Frames != uint64(len(tr)) || st.Dropped != uint64(len(wantDropped)) {
			t.Errorf("%s: stats frames=%d dropped=%d, want %d/%d",
				tc.scenario, st.Frames, st.Dropped, len(tr), len(wantDropped))
		}
	}
}

// TestEnginePreventionDeterministicAcrossRuns re-runs the full loop
// (fresh gateway and responder each time, as quarantines persist on a
// gateway) and demands identical output every run.
func TestEnginePreventionDeterministicAcrossRuns(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/SI-100")
	pool := scenarioLegalPool(t, "fusion/idle/SI-100")
	var firstAlerts []detect.Alert
	var firstDropped []droppedRec
	for i := 0; i < 4; i++ {
		alerts, dropped, _, _ := enginePrevention(t, tmpl, nil, pool, 30*time.Second, nil, tr)
		if i == 0 {
			firstAlerts, firstDropped = alerts, dropped
			if len(firstAlerts) == 0 || len(firstDropped) == 0 {
				t.Fatal("nothing to compare")
			}
			continue
		}
		if !reflect.DeepEqual(alerts, firstAlerts) || !reflect.DeepEqual(dropped, firstDropped) {
			t.Fatalf("run %d produced different output", i)
		}
	}
}

// TestEnginePreventionStopsAttack checks the loop actually prevents: on
// a single-ID injection the responder blocks the spoofed identifier and
// the gateway stops the bulk of the remaining attack frames mid-stream.
func TestEnginePreventionStopsAttack(t *testing.T) {
	specs, tmpl, _ := loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/SI-100")
	pool := scenarioLegalPool(t, "fusion/idle/SI-100")
	_, dropped, actions, st := enginePrevention(t, tmpl, nil, pool, 30*time.Second, nil, tr)
	if len(actions) == 0 {
		t.Fatal("responder never acted")
	}
	if st.DroppedInjected == 0 {
		t.Fatal("no injected frames were stopped")
	}
	// After the first block lands, the attack should be mostly dead: the
	// remaining injected frames on the wire are dropped at the gateway.
	blockedFrom := actions[0].Alert.WindowEnd
	var afterBlock, stoppedAfterBlock int
	for _, r := range tr {
		if r.Injected && r.Time >= blockedFrom {
			afterBlock++
		}
	}
	for _, d := range dropped {
		if d.rec.Injected && d.rec.Time >= blockedFrom {
			stoppedAfterBlock++
		}
	}
	if afterBlock == 0 {
		t.Fatal("attack ended before the first block; scenario too short")
	}
	if got := float64(stoppedAfterBlock) / float64(afterBlock); got < 0.9 {
		t.Errorf("only %.0f%% of post-block attack frames were stopped (%d/%d)",
			100*got, stoppedAfterBlock, afterBlock)
	}
	// Sanity: the blocked identifier is the one the campaign spoofs (the
	// single-ID scenario draws it from the legal pool, so inference can
	// name it exactly).
	spec, _ := scenario.Find(specs, "fusion/idle/SI-100")
	if spec.Campaign.IDCount != 1 {
		t.Fatal("scenario is not single-ID")
	}
	var spoofed can.ID
	for _, r := range tr {
		if r.Injected {
			spoofed = r.Frame.ID
			break
		}
	}
	if got := actions[0].Blocked[0]; got != spoofed {
		t.Errorf("first block hit %v, want the spoofed %v", got, spoofed)
	}
}

// TestEnginePreventionWithBaselines runs the full loop with the Müter
// and Song pipelines attached: the merged stream must equal the union of
// each detector's sequential alerts over the *forwarded* record stream
// (baselines sit behind the gateway too), ordered by (WindowEnd, rank),
// and responding at each window close must not disturb the baseline
// alerts held for release.
func TestEnginePreventionWithBaselines(t *testing.T) {
	_, tmpl, windows := loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/SI-100")
	pool := scenarioLegalPool(t, "fusion/idle/SI-100")

	newBaselines := func() []detect.Detector {
		m, err := baseline.NewMuter(baseline.DefaultMuterConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := baseline.NewSong(baseline.DefaultSongConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []detect.Detector{m, s} {
			if err := d.Train(windows); err != nil {
				t.Fatalf("train %s: %v", d.Name(), err)
			}
		}
		return []detect.Detector{m, s}
	}

	coreAlerts, wantDropped, _, forwarded := sequentialPrevention(t, tmpl, nil, pool, 30*time.Second, tr)
	ref := newBaselines()
	want := append([]detect.Alert(nil), coreAlerts...)
	for _, b := range ref {
		want = append(want, sequentialAlerts(b, forwarded)...)
	}
	sortAlertsByMergeOrder(want, ref)

	gotAlerts, gotDropped, _, _ := enginePrevention(t, tmpl, nil, pool, 30*time.Second, newBaselines(), tr)
	if len(want) == 0 {
		t.Fatal("expected alerts")
	}
	if !reflect.DeepEqual(gotAlerts, want) {
		t.Errorf("merged prevention stream differs: got %d alerts, want %d", len(gotAlerts), len(want))
	}
	if !reflect.DeepEqual(gotDropped, wantDropped) {
		t.Errorf("dropped set differs with baselines attached: got %d, want %d", len(gotDropped), len(wantDropped))
	}
}

// TestEngineGatewayOnly installs a gateway without a responder: the
// whitelist filters, nothing is blocked, and the alert stream equals a
// sequential detector over the filtered records.
func TestEngineGatewayOnly(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/FI-500")
	legal := scenarioLegalPool(t, "fusion/idle/FI-500")

	gwRef, err := gateway.New(gateway.DefaultConfig(legal))
	if err != nil {
		t.Fatal(err)
	}
	forwarded, fst := gwRef.Filter(tr)
	if fst.DropUnknown == 0 {
		t.Fatal("flood scenario should trip the whitelist")
	}
	want := sequentialAlerts(newSequentialCore(t, tmpl), forwarded)

	gw, err := gateway.New(gateway.DefaultConfig(legal))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewTrained(engine.Config{Core: detectorConfig(), Gateway: gw}, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := eng.Detect(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gateway-only alert stream differs: got %d, want %d", len(got), len(want))
	}
	if st.Dropped != uint64(fst.DropUnknown) {
		t.Errorf("Stats.Dropped = %d, want %d", st.Dropped, fst.DropUnknown)
	}
}

// TestEnginePreventionValidation pins Config validation: a responder
// without a gateway, or bound to a different gateway, cannot close the
// loop and must be rejected.
func TestEnginePreventionValidation(t *testing.T) {
	pool := []can.ID{0x100}
	gw1, resp1 := preventionSetup(t, nil, pool, time.Second)
	_ = gw1
	if _, err := engine.New(engine.Config{Core: detectorConfig(), Responder: resp1}); err == nil {
		t.Error("Responder without Gateway accepted")
	}
	gw2, err := gateway.New(gateway.DefaultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.New(engine.Config{Core: detectorConfig(), Gateway: gw2, Responder: resp1}); err == nil {
		t.Error("Responder bound to a different gateway accepted")
	}
	if _, err := engine.New(engine.Config{Core: detectorConfig(), Gateway: gw2}); err != nil {
		t.Errorf("gateway-only config rejected: %v", err)
	}
}

// TestEnginePreventionSteadyStateAllocs extends the alloc-regression
// guard to the prevention path: the per-frame work — classify, batch,
// count — must stay amortized well under one allocation per frame even
// with the gateway and responder in the loop.
func TestEnginePreventionSteadyStateAllocs(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/SI-100")
	pool := scenarioLegalPool(t, "fusion/idle/SI-100")
	ctx := context.Background()
	run := func() {
		gw, resp := preventionSetup(t, nil, pool, 30*time.Second)
		eng, err := engine.NewTrained(engine.Config{
			Core: detectorConfig(), Gateway: gw, Responder: resp,
		}, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.Detect(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	run()
	avg := testing.AllocsPerRun(3, run)
	if perFrame := avg / float64(len(tr)); perFrame > 0.25 {
		t.Errorf("prevention path allocates %.3f allocs/frame (%.0f per run over %d frames)",
			perFrame, avg, len(tr))
	}
}
