package engine_test

import (
	"context"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/engine/scenario"
	"canids/internal/gateway"
	"canids/internal/model"
	"canids/internal/response"
	"canids/internal/trace"
)

// altTemplate memoizes a golden template trained on the "fusion-b"
// profile variant — same statistics, disjoint identifier map — so a
// mid-stream swap to it visibly changes the alert stream.
var altTemplate = struct {
	once sync.Once
	tmpl core.Template
	err  error
}{}

func loadAltTemplate(t *testing.T) core.Template {
	t.Helper()
	specs, _, _ := loadFixture(t)
	altTemplate.once.Do(func() {
		altTemplate.tmpl, altTemplate.err = scenario.Train(specs, "fusion-b", detectorConfig())
	})
	if altTemplate.err != nil {
		t.Fatalf("train fusion-b template: %v", altTemplate.err)
	}
	return altTemplate.tmpl
}

// swapAtSource wraps an in-memory trace and queues the swap on the
// engine the moment record index n is requested — i.e. before the
// lane processes it — so the swap lands at the first window
// boundary the lane crosses from record n on, a position that
// depends only on the record stream.
type swapAtSource struct {
	tr  trace.Trace
	i   int
	n   int
	eng *engine.Engine
	sw  *model.Model
	t   *testing.T
}

func (s *swapAtSource) Next() (trace.Record, error) {
	if s.i == s.n {
		if err := s.eng.Swap(s.sw); err != nil {
			s.t.Errorf("Swap: %v", err)
		}
	}
	if s.i >= len(s.tr) {
		return trace.Record{}, io.EOF
	}
	r := s.tr[s.i]
	s.i++
	return r, nil
}

// swapBoundary replays the lane's window walk over the record
// stream and returns the start of the first window that begins at or
// after the first boundary crossed from record index n on — the exact
// stream position a swap queued at record n lands at.
func swapBoundary(tr trace.Trace, n int, w time.Duration) (time.Duration, bool) {
	var winStart time.Duration
	have := false
	for i, r := range tr {
		if !have {
			winStart = r.Time
			have = true
		}
		if detect.WindowExpired(winStart, r.Time, w) {
			winStart = detect.NextWindowStart(winStart, r.Time, w)
			if i >= n {
				return winStart, true
			}
		}
	}
	return 0, false
}

// sequentialSwapAlerts is the reference semantics: a sequential
// core.Detector whose template is replaced exactly when the first
// window starting at or after the boundary is about to be scored —
// windows closing before the boundary score under the old template,
// everything from the boundary on under the new.
func sequentialSwapAlerts(t *testing.T, oldTmpl, newTmpl core.Template, from time.Duration, tr trace.Trace) []detect.Alert {
	t.Helper()
	d := newSequentialCore(t, oldTmpl)
	applied := false
	d.OnWindow(func(start time.Duration, m core.WindowMeasurement) {
		if !applied && start >= from {
			if err := d.SetTemplate(newTmpl); err != nil {
				t.Fatalf("SetTemplate: %v", err)
			}
			applied = true
		}
	})
	return sequentialAlerts(d, tr)
}

// TestEngineHotSwapMatchesSequential is the hot-reload acceptance
// criterion: swapping the golden template mid-stream produces an alert
// stream bit-identical to a sequential run that switches templates at
// the same window boundary.
func TestEngineHotSwapMatchesSequential(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	alt := loadAltTemplate(t)
	w := detectorConfig().Window
	for _, name := range []string{"fusion/idle/SI-100", "fusion/cruise/MI4-50", "fusion/idle/clean"} {
		tr := scenarioTrace(t, name)
		n := len(tr) / 2
		from, ok := swapBoundary(tr, n, w)
		if !ok {
			t.Fatalf("%s: no window boundary after record %d; trace too short", name, n)
		}
		want := sequentialSwapAlerts(t, tmpl, alt, from, tr)
		unswapped := sequentialAlerts(newSequentialCore(t, tmpl), tr)
		if reflect.DeepEqual(want, unswapped) {
			t.Fatalf("%s: swap to the fusion-b template changes nothing; test is vacuous", name)
		}
		eng := newEngine(t, engine.Config{}, model.Spec{Template: tmpl})
		src := &swapAtSource{tr: tr, n: n, eng: eng, sw: specModel(t, model.Spec{Template: alt}), t: t}
		var got []detect.Alert
		if _, err := eng.Run(context.Background(), src, func(a detect.Alert) { got = append(got, a) }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: swapped alert stream differs from sequential reference (got %d, want %d)",
				name, len(got), len(want))
		}
	}
}

// TestEngineHotSwapDeterministicAcrossRuns re-runs the same mid-stream
// swap and demands identical output every time: the landing boundary
// must be a function of the record stream alone.
func TestEngineHotSwapDeterministicAcrossRuns(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	alt := loadAltTemplate(t)
	tr := scenarioTrace(t, "fusion/idle/SI-100")
	var first []detect.Alert
	for i := 0; i < 4; i++ {
		eng := newEngine(t, engine.Config{}, model.Spec{Template: tmpl})
		src := &swapAtSource{tr: tr, n: len(tr) / 3, eng: eng, sw: specModel(t, model.Spec{Template: alt}), t: t}
		var got []detect.Alert
		if _, err := eng.Run(context.Background(), src, func(a detect.Alert) { got = append(got, a) }); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = got
			if len(first) == 0 {
				t.Fatal("no alerts to compare")
			}
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d produced a different alert stream", i)
		}
	}
}

// TestEngineHotSwapPolicy swaps gateway budgets and responder policy
// mid-stream with the full prevention loop installed: the injected
// budget table must be live on the gateway after the run, rate drops
// must only appear from the swap boundary on, and the responder must
// report the new policy.
func TestEngineHotSwapPolicy(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/SI-100")
	pool := scenarioLegalPool(t, "fusion/idle/SI-100")
	n := len(tr) / 2
	from, ok := swapBoundary(tr, n, detectorConfig().Window)
	if !ok {
		t.Fatal("no boundary after swap point")
	}

	// A budget of 1 frame per window for every legal ID is far below any
	// nominal rate, so rate drops must start immediately after the swap.
	budgets := make(map[can.ID]int, len(pool))
	for _, id := range pool {
		budgets[id] = 1
	}
	newPolicy := response.DefaultConfig(pool)
	newPolicy.Quarantine = 5 * time.Second
	newPolicy.MinScore = 0.25

	base, err := gateway.NewPolicy(gateway.Config{RateWindow: detectorConfig().Window})
	if err != nil {
		t.Fatal(err)
	}
	basePolicy := response.DefaultConfig(pool)
	var dropped []droppedRec
	eng := newEngine(t, engine.Config{
		OnDrop: func(r trace.Record, v gateway.Verdict) { dropped = append(dropped, droppedRec{rec: r, v: v}) },
	}, model.Spec{Template: tmpl, Pool: pool, Gateway: base, Response: &basePolicy})
	gp, err := gateway.NewPolicy(gateway.Config{RateWindow: detectorConfig().Window, Budgets: budgets})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := model.New(model.Spec{
		Epoch: 2, Core: detectorConfig(), Template: tmpl, Pool: pool,
		Gateway: gp, Response: &newPolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := &swapAtSource{tr: tr, n: n, eng: eng, sw: sw, t: t}
	if _, err := eng.Run(context.Background(), src, func(detect.Alert) {}); err != nil {
		t.Fatal(err)
	}

	if got := eng.Gateway().Budgets(); !reflect.DeepEqual(got, budgets) {
		t.Errorf("gateway budgets after swap: %d entries, want %d", len(got), len(budgets))
	}
	got := eng.Responder().Config()
	if got.Quarantine != newPolicy.Quarantine || got.MinScore != newPolicy.MinScore {
		t.Errorf("responder policy after swap: quarantine %v minscore %v, want %v %v",
			got.Quarantine, got.MinScore, newPolicy.Quarantine, newPolicy.MinScore)
	}
	rate := 0
	for _, d := range dropped {
		if d.v != gateway.DropRate {
			continue
		}
		rate++
		if d.rec.Time < from {
			t.Fatalf("rate drop at %v, before the swap boundary %v", d.rec.Time, from)
		}
	}
	if rate == 0 {
		t.Error("swapped-in budgets never dropped a frame")
	}
}
