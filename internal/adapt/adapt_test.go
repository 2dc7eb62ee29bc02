package adapt_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"canids/internal/adapt"
	"canids/internal/attack"
	"canids/internal/bus"
	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/entropy"
	"canids/internal/gateway"
	"canids/internal/model"
	"canids/internal/sim"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

// testTemplate builds a small valid template without the simulator.
func testTemplate(width int) core.Template {
	t := core.Template{Width: width, Windows: 3}
	for i := 0; i < width; i++ {
		t.MeanH = append(t.MeanH, 0.5)
		t.MinH = append(t.MinH, 0.4)
		t.MaxH = append(t.MaxH, 0.6)
		t.MeanP = append(t.MeanP, 0.25)
	}
	return t
}

// testModel freezes a base model for synthetic unit tests: the default
// core config with MinFrames 1 (every window counts), the flat test
// template, and a budget-less gateway policy at the detection window.
func testModel(mutate func(*core.Config, *gateway.Config)) *model.Model {
	cfg := core.DefaultConfig()
	cfg.MinFrames = 1
	gwCfg := gateway.Config{RateWindow: cfg.Window, RateSlack: 1}
	if mutate != nil {
		mutate(&cfg, &gwCfg)
	}
	gp, err := gateway.NewPolicy(gwCfg)
	if err != nil {
		panic(err)
	}
	m, err := model.New(model.Spec{Epoch: 1, Core: cfg, Template: testTemplate(cfg.Width), Gateway: gp})
	if err != nil {
		panic(err)
	}
	return m
}

// testConfig is a tight adapter for synthetic unit tests: short
// cadence, frozen template so budget content is easy to assert.
func testConfig() adapt.Config {
	return adapt.Config{
		Base:           testModel(nil),
		LearnBudgets:   true,
		RateSlack:      1,
		FreezeTemplate: true,
		Ring:           4,
		MinWindows:     2,
		Every:          2,
	}
}

// feedWindow observes counts[id] records per identifier and closes the
// window with the given verdict flags.
func feedWindow(a *adapt.Adapter, n int, counts map[can.ID]int, alerted bool, dropped uint64) *model.Model {
	start := time.Duration(n) * time.Second
	for id, c := range counts {
		for i := 0; i < c; i++ {
			a.Observe(trace.Record{Time: start, Frame: can.Frame{ID: id}})
		}
	}
	return a.WindowClosed(engine.WindowInfo{
		Start:     start,
		End:       start + time.Second,
		NextStart: start + time.Second,
		Alerted:   alerted,
		Dropped:   dropped,
	})
}

func TestAdapterPromotesBudgetsFromCleanWindows(t *testing.T) {
	a, err := adapt.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	w1 := map[can.ID]int{0x100: 3, 0x200: 5}
	w2 := map[can.ID]int{0x100: 7, 0x300: 2}
	if sw := feedWindow(a, 0, w1, false, 0); sw != nil {
		t.Fatal("promoted after one clean window; MinWindows is 2")
	}
	sw := feedWindow(a, 1, w2, false, 0)
	if sw == nil {
		t.Fatal("no promotion after two clean windows at Every=2")
	}
	want := map[can.ID]int{0x100: 7, 0x200: 5, 0x300: 2} // slack 1 → peaks
	if got := sw.Gateway().Budgets(); !reflect.DeepEqual(got, want) {
		t.Errorf("promoted budgets = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(sw.Template(), testTemplate(11)) {
		t.Error("frozen template changed across promotion")
	}
	if sw.Epoch() != 1 {
		t.Errorf("promotion minted epoch %d; learning must keep the base generation", sw.Epoch())
	}
	st := a.Status()
	if st.Promotions != 1 || st.Clean != 2 || st.CleanSince != 0 || st.BudgetIDs != 3 {
		t.Errorf("status after promotion: %+v", st)
	}
	if st.LastBoundary != 2*time.Second {
		t.Errorf("LastBoundary = %v, want 2s", st.LastBoundary)
	}
}

func TestAdapterExcludesDirtyWindows(t *testing.T) {
	a, err := adapt.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	burst := map[can.ID]int{0x100: 1000}
	if sw := feedWindow(a, 0, burst, true, 0); sw != nil { // alerted
		t.Fatal("promoted from an alerted window")
	}
	if sw := feedWindow(a, 1, burst, false, 3); sw != nil { // gateway dropped
		t.Fatal("promoted from a polluted window")
	}
	if sw := feedWindow(a, 2, nil, false, 0); sw != nil { // empty → sparse
		t.Fatal("promoted from a sparse window")
	}
	clean := map[can.ID]int{0x100: 2}
	feedWindow(a, 3, clean, false, 0)
	sw := feedWindow(a, 4, clean, false, 0)
	if sw == nil {
		t.Fatal("two clean windows did not promote")
	}
	if got := sw.Gateway().Budgets()[0x100]; got != 2 {
		t.Errorf("budget learned from dirty windows: 0x100 → %d, want 2", got)
	}
	st := a.Status()
	if st.Alerted != 1 || st.Polluted != 1 || st.Sparse != 1 || st.Clean != 2 {
		t.Errorf("window classification counters: %+v", st)
	}
}

func TestAdapterRingBoundsLearning(t *testing.T) {
	cfg := testConfig()
	cfg.Ring = 2
	cfg.MinWindows = 2
	cfg.Every = 100 // promote only via Force
	a, err := adapt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedWindow(a, 0, map[can.ID]int{0x100: 50}, false, 0) // will age out
	feedWindow(a, 1, map[can.ID]int{0x100: 4}, false, 0)
	feedWindow(a, 2, map[can.ID]int{0x100: 6}, false, 0)
	a.Force()
	sw := feedWindow(a, 3, map[can.ID]int{0x100: 5}, false, 0)
	if sw == nil {
		t.Fatal("forced promotion did not fire")
	}
	// The ring holds the last two clean windows (counts 6 and 5): the
	// peak of 50 must have aged out.
	if got := sw.Gateway().Budgets()[0x100]; got != 6 {
		t.Errorf("budget = %d, want 6 (ring should have evicted the 50-frame window)", got)
	}
}

func TestAdapterPauseAndForce(t *testing.T) {
	a, err := adapt.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean := map[can.ID]int{0x100: 2}
	a.Pause()
	for i := 0; i < 6; i++ {
		if sw := feedWindow(a, i, clean, false, 0); sw != nil {
			t.Fatal("paused adapter promoted")
		}
	}
	if st := a.Status(); !st.Paused || st.Promotions != 0 {
		t.Errorf("paused status: %+v", st)
	}
	a.Resume()
	if sw := feedWindow(a, 6, clean, false, 0); sw == nil {
		t.Fatal("resumed adapter did not promote once the cadence was due")
	}
	a.Force()
	if st := a.Status(); !st.ForcePending {
		t.Error("Force not pending in status")
	}
	if sw := feedWindow(a, 7, clean, true, 0); sw == nil {
		t.Fatal("forced promotion must fire at the next boundary even after a dirty window")
	}
	if st := a.Status(); st.ForcePending {
		t.Error("force still pending after the forced promotion")
	}
}

func TestAdapterTemplateEWMARefresh(t *testing.T) {
	cfg := testConfig()
	cfg.FreezeTemplate = false
	cfg.TemplateEWMA = 0.5
	a, err := adapt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two identical clean windows over one identifier: the measured
	// per-bit entropy of a single-ID window is 0 everywhere, so the
	// EWMA must pull every mean toward 0: 0.5 → 0.25 → 0.125.
	clean := map[can.ID]int{0x0: 4}
	feedWindow(a, 0, clean, false, 0)
	sw := feedWindow(a, 1, clean, false, 0)
	if sw == nil {
		t.Fatal("no promotion")
	}
	tmpl := sw.Template()
	for i, h := range tmpl.MeanH {
		if diff := h - 0.125; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("bit %d: EWMA mean = %v, want 0.125", i+1, h)
		}
	}
	if tmpl.MinH[0] != 0.4 || tmpl.MaxH[0] != 0.6 {
		t.Error("promotion changed the trained min/max spread; thresholds must stay")
	}
	if st := a.Status(); st.Drift < 0.374 || st.Drift > 0.376 {
		t.Errorf("drift = %v, want 0.375", st.Drift)
	}
}

func TestAdapterRebase(t *testing.T) {
	a, err := adapt.New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean := map[can.ID]int{0x100: 9}
	feedWindow(a, 0, clean, false, 0)
	newTmpl := testTemplate(11)
	newTmpl.MeanH[0] = 0.55
	base := testModel(func(_ *core.Config, g *gateway.Config) {
		g.Budgets = map[can.ID]int{0x100: 3}
	})
	reloaded, err := base.WithTemplate(newTmpl)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Rebase(reloaded); err != nil {
		t.Fatal(err)
	}
	st := a.Status()
	if st.RingFill != 0 || st.CleanSince != 0 || st.BudgetIDs != 1 {
		t.Errorf("rebase did not reset learning state: %+v", st)
	}
	m, _ := a.Model()
	if m.Template().MeanH[0] != 0.55 || m.Gateway().Budgets()[0x100] != 3 {
		t.Errorf("rebase model not installed: %v %v", m.Template().MeanH[0], m.Gateway().Budgets())
	}
	bad := testModel(func(c *core.Config, g *gateway.Config) {
		c.Width = 7
	})
	if err := a.Rebase(bad); err == nil {
		t.Error("rebase accepted a core-mismatched model")
	}
	if err := a.Rebase(nil); err == nil {
		t.Error("rebase accepted a nil model")
	}
}

func TestAdapterConfigValidation(t *testing.T) {
	noGateway := func() *model.Model {
		cfg := core.DefaultConfig()
		cfg.MinFrames = 1
		m, err := model.New(model.Spec{Epoch: 1, Core: cfg, Template: testTemplate(cfg.Width)})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := map[string]func(*adapt.Config){
		"nil base": func(c *adapt.Config) { c.Base = nil },
		"rate window mismatch": func(c *adapt.Config) {
			c.Base = testModel(func(cc *core.Config, g *gateway.Config) { g.RateWindow = cc.Window / 2 })
		},
		"learning without gateway": func(c *adapt.Config) { c.Base = noGateway() },
		"negative slack":           func(c *adapt.Config) { c.RateSlack = -1 },
		"ewma out of range":        func(c *adapt.Config) { c.FreezeTemplate = false; c.TemplateEWMA = 1.5 },
		"nothing to adapt":         func(c *adapt.Config) { c.LearnBudgets = false },
		"min exceeds ring":         func(c *adapt.Config) { c.MinWindows = 10 },
	}
	for name, mutate := range cases {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := adapt.New(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

// --- Determinism: adapted engine == sequential reference -------------

// fixture is the shared simulated state for the end-to-end tests: a
// template trained on clean idle traffic, and a long probe trace whose
// injection attack starts only after enough clean windows for budget
// promotions to be live.
var fixture = struct {
	once     sync.Once
	cfg      core.Config
	tmpl     core.Template
	attacked trace.Trace
	err      error
}{}

func simulate(seed int64, d time.Duration, atk *attack.Config) (trace.Trace, error) {
	sched := sim.NewScheduler()
	b, err := bus.New(sched, bus.Config{BitRate: bus.DefaultMSCANBitRate, Channel: "ms-can"})
	if err != nil {
		return nil, err
	}
	var log trace.Trace
	b.Tap(func(r trace.Record) { log = append(log, r) })
	vehicle.NewFusionProfile(1).Attach(sched, b, vehicle.Options{Scenario: vehicle.Idle, Seed: seed})
	if atk != nil {
		if _, err := attack.Launch(sched, b, nil, *atk); err != nil {
			return nil, err
		}
	}
	if err := sched.RunUntil(d); err != nil {
		return nil, err
	}
	return log, nil
}

func loadFixture(t *testing.T) (core.Config, core.Template, trace.Trace) {
	t.Helper()
	fixture.once.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Alpha = 4
		fixture.cfg = cfg
		training, err := simulate(5, 8*time.Second, nil)
		if err != nil {
			fixture.err = err
			return
		}
		fixture.tmpl, fixture.err = core.BuildTemplate(training.Windows(cfg.Window, false), cfg.Width, cfg.MinFrames)
		if fixture.err != nil {
			return
		}
		// 14 s of clean traffic, then a 100 Hz single-ID injection: the
		// adapter promotes budgets from the clean prefix, so the attack
		// runs into live rate limits.
		fixture.attacked, fixture.err = simulate(7, 24*time.Second, &attack.Config{
			Scenario: attack.Single, IDs: []can.ID{0x0B5}, Frequency: 100,
			Start: 14 * time.Second, Seed: 9,
		})
	})
	if fixture.err != nil {
		t.Fatalf("fixture: %v", fixture.err)
	}
	return fixture.cfg, fixture.tmpl, fixture.attacked
}

func adapterConfig(t *testing.T, cfg core.Config, tmpl core.Template) adapt.Config {
	t.Helper()
	gp, err := gateway.NewPolicy(gateway.Config{RateWindow: cfg.Window})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.New(model.Spec{Epoch: 1, Core: cfg, Template: tmpl, Gateway: gp})
	if err != nil {
		t.Fatal(err)
	}
	return adapt.Config{
		Base:         m,
		LearnBudgets: true,
		RateSlack:    1, // tight: promoted budgets visibly throttle the attack
		MinWindows:   4,
		Every:        4,
		Ring:         16,
	}
}

// adaptedEngine builds an adapter on adapterConfig's base model and the
// engine it drives (ecfg plus the adapter), from that same model,
// through engine.NewFromModel.
func adaptedEngine(t *testing.T, ecfg engine.Config, cfg core.Config, tmpl core.Template) (*engine.Engine, *adapt.Adapter) {
	t.Helper()
	ac := adapterConfig(t, cfg, tmpl)
	ad, err := adapt.New(ac)
	if err != nil {
		t.Fatal(err)
	}
	ecfg.Adapt = ad
	eng, err := engine.NewFromModel(ecfg, ac.Base)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ad
}

// sequentialAdaptAlerts is the reference semantics: one goroutine
// classifying each record through the gateway, feeding forwarded ones
// to a sequential core.Detector, and consulting an identical adapter at
// every window boundary — promotions install exactly when the first
// window at or after the boundary is about to be scored.
func sequentialAdaptAlerts(t *testing.T, cfg core.Config, tmpl core.Template, tr trace.Trace) ([]detect.Alert, uint64) {
	t.Helper()
	ad, err := adapt.New(adapterConfig(t, cfg, tmpl))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{RateWindow: cfg.Window})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetTemplate(tmpl); err != nil {
		t.Fatal(err)
	}
	var out []detect.Alert
	var winStart time.Duration
	var winDropped, dropped uint64
	haveWindow := false
	for _, rec := range tr {
		if gw.Classify(rec) != gateway.Forward {
			winDropped++
			dropped++
			continue
		}
		if !haveWindow {
			winStart = rec.Time
			haveWindow = true
		}
		// Mirror the engine lane's walk: detect the boundary before
		// Observe (which closes the same window internally), so the
		// adapter's verdict and promotion land at the identical position.
		boundary := false
		var closedStart time.Duration
		if detect.WindowExpired(winStart, rec.Time, cfg.Window) {
			closedStart = winStart
			winStart = detect.NextWindowStart(winStart, rec.Time, cfg.Window)
			boundary = true
		}
		alerts := d.Observe(rec)
		out = append(out, alerts...)
		if boundary {
			alerted := false
			for _, a := range alerts {
				if a.WindowStart == closedStart {
					alerted = true
				}
			}
			sw := ad.WindowClosed(engine.WindowInfo{
				Start:     closedStart,
				End:       detect.WindowEnd(closedStart, cfg.Window),
				NextStart: winStart,
				Alerted:   alerted,
				Dropped:   winDropped,
			})
			winDropped = 0
			if sw != nil {
				// Mirror the engine's boundary install exactly: swap the
				// whole policy, not individual budget fields.
				if err := d.SetTemplate(sw.Template()); err != nil {
					t.Fatal(err)
				}
				if gp := sw.Gateway(); gp != nil {
					gw.SetPolicy(gp)
				}
			}
		}
		ad.Observe(rec)
	}
	out = append(out, d.Flush()...)
	if st := ad.Status(); st.Promotions == 0 {
		t.Fatal("reference run promoted nothing; the scenario does not exercise adaptation")
	}
	return out, dropped
}

// TestEngineAdaptMatchesSequential is the subsystem's acceptance
// criterion: with live budget/template promotions pinned to window
// boundaries, the engine's alert stream is bit-identical to the
// sequential reference that swaps the same models at the same
// boundaries.
func TestEngineAdaptMatchesSequential(t *testing.T) {
	cfg, tmpl, tr := loadFixture(t)
	want, wantDropped := sequentialAdaptAlerts(t, cfg, tmpl, tr)
	if wantDropped == 0 {
		t.Fatal("promoted budgets dropped nothing; the attack never hit a rate limit")
	}

	// Vacuous-test guard: adaptation must visibly change the outcome
	// versus the frozen model.
	frozen, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := frozen.SetTemplate(tmpl); err != nil {
		t.Fatal(err)
	}
	var unadapted []detect.Alert
	for _, r := range tr {
		unadapted = append(unadapted, frozen.Observe(r)...)
	}
	unadapted = append(unadapted, frozen.Flush()...)
	if reflect.DeepEqual(want, unadapted) {
		t.Fatal("adaptation changes nothing on this trace; test is vacuous")
	}

	// The deprecated Shards field is still set by older callers; every
	// value must leave the adapted stream unchanged.
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, ad := adaptedEngine(t, engine.Config{Shards: shards}, cfg, tmpl)
			got, st, err := eng.Detect(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("adapted alert stream differs from sequential reference (got %d alerts, want %d)", len(got), len(want))
			}
			if st.Dropped != wantDropped {
				t.Errorf("dropped %d frames, reference dropped %d", st.Dropped, wantDropped)
			}
			if ast := ad.Status(); ast.Promotions == 0 {
				t.Error("engine run promoted nothing")
			}
		})
	}
}

// TestEngineAdaptDeterministicAcrossRuns re-runs the same adapted
// stream and demands identical output and identical promotion counters
// every time: adaptation must be a function of the record stream.
func TestEngineAdaptDeterministicAcrossRuns(t *testing.T) {
	cfg, tmpl, tr := loadFixture(t)
	var firstAlerts []detect.Alert
	var firstStatus adapt.Status
	for i := 0; i < 3; i++ {
		eng, ad := adaptedEngine(t, engine.Config{}, cfg, tmpl)
		got, _, err := eng.Detect(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		st := ad.Status()
		if i == 0 {
			firstAlerts, firstStatus = got, st
			if st.Promotions == 0 {
				t.Fatal("no promotions to compare")
			}
			continue
		}
		if !reflect.DeepEqual(got, firstAlerts) {
			t.Fatalf("run %d produced a different alert stream", i)
		}
		if st != firstStatus {
			t.Fatalf("run %d adapter status %+v differs from first %+v", i, st, firstStatus)
		}
	}
}

// TestAdapterEWMAMeasurementUsesWindowCounts cross-checks the adapter's
// internal measurement against entropy.BitCounter directly: one clean
// window over a known ID mix must move the EWMA exactly toward that
// window's measured vector.
func TestAdapterEWMAMeasurementUsesWindowCounts(t *testing.T) {
	cfg := testConfig()
	cfg.FreezeTemplate = false
	cfg.TemplateEWMA = 1 // promote exactly the last window's measurement
	cfg.MinWindows = 1
	cfg.Every = 1
	a, err := adapt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[can.ID]int{0x155: 3, 0x2A0: 5, 0x7FF: 1}
	sw := feedWindow(a, 0, counts, false, 0)
	if sw == nil {
		t.Fatal("no promotion at Every=1")
	}
	width := cfg.Base.Core().Width
	c := entropy.MustBitCounter(width)
	for id, n := range counts {
		for i := 0; i < n; i++ {
			c.Add(id)
		}
	}
	h := make([]float64, width)
	p := make([]float64, width)
	c.MeasureInto(h, p)
	tmpl := sw.Template()
	if !reflect.DeepEqual(tmpl.MeanH, h) || !reflect.DeepEqual(tmpl.MeanP, p) {
		t.Errorf("λ=1 promotion should equal the window measurement\n got H %v\nwant H %v", tmpl.MeanH, h)
	}
}

func TestAdapterConfigRejectsNaN(t *testing.T) {
	cfg := testConfig()
	cfg.RateSlack = math.NaN()
	if _, err := adapt.New(cfg); err == nil {
		t.Error("NaN rate slack accepted")
	}
	cfg = testConfig()
	cfg.FreezeTemplate = false
	cfg.TemplateEWMA = math.NaN()
	if _, err := adapt.New(cfg); err == nil {
		t.Error("NaN template EWMA accepted")
	}
	if _, err := gateway.NewRateLearner(math.NaN()); err == nil {
		t.Error("NaN learner slack accepted")
	}
}

// TestAdapterRingDefaultGrowsWithWarmup pins the CLI-facing defaulting:
// a caller that only raises MinWindows (canids -adapt-every) must not
// be rejected against the default ring capacity it never chose.
func TestAdapterRingDefaultGrowsWithWarmup(t *testing.T) {
	cfg := testConfig()
	cfg.Ring = 0
	cfg.MinWindows = 50 // above DefaultRing
	cfg.Every = 50
	if _, err := adapt.New(cfg); err != nil {
		t.Fatalf("defaulted ring did not grow to fit MinWindows: %v", err)
	}
	cfg.Ring = 4 // explicit ring below the warm-up must still error
	if _, err := adapt.New(cfg); err == nil {
		t.Fatal("explicit Ring < MinWindows accepted")
	}
}
