package engine_test

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"canids/internal/baseline"
	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/engine/scenario"
	"canids/internal/trace"
)

// testBaseSeed anchors the test catalogue.
const testBaseSeed = 1

// fixture is the shared, expensive test state: the scenario catalogue,
// the trained template and training windows for the "fusion" profile,
// and memoized scenario traces.
var fixture = struct {
	once    sync.Once
	specs   []scenario.Spec
	tmpl    core.Template
	windows []trace.Trace
	traces  map[string]trace.Trace
	err     error
}{traces: make(map[string]trace.Trace)}

func detectorConfig() core.Config {
	cfg := core.DefaultConfig()
	// The substrate's empirical operating point (see EXPERIMENTS.md).
	cfg.Alpha = 4
	return cfg
}

func loadFixture(t *testing.T) ([]scenario.Spec, core.Template, []trace.Trace) {
	t.Helper()
	fixture.once.Do(func() {
		fixture.specs = scenario.Matrix(testBaseSeed)
		fixture.windows, fixture.err = scenario.TrainingWindows(fixture.specs, "fusion", detectorConfig().Window)
		if fixture.err != nil {
			return
		}
		fixture.tmpl, fixture.err = core.BuildTemplate(fixture.windows, detectorConfig().Width, detectorConfig().MinFrames)
	})
	if fixture.err != nil {
		t.Fatalf("fixture: %v", fixture.err)
	}
	return fixture.specs, fixture.tmpl, fixture.windows
}

// scenarioTrace memoizes scenario simulations across tests.
func scenarioTrace(t *testing.T, name string) trace.Trace {
	t.Helper()
	specs, _, _ := loadFixture(t)
	if tr, ok := fixture.traces[name]; ok {
		return tr
	}
	spec, ok := scenario.Find(specs, name)
	if !ok {
		t.Fatalf("no scenario %q in catalogue", name)
	}
	tr, err := spec.Run()
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	fixture.traces[name] = tr
	return tr
}

// sequentialAlerts replays a trace through a detector the classic way.
func sequentialAlerts(d detect.Detector, tr trace.Trace) []detect.Alert {
	d.Reset()
	var out []detect.Alert
	for _, r := range tr {
		out = append(out, d.Observe(r)...)
	}
	out = append(out, d.Flush()...)
	return out
}

func newSequentialCore(t *testing.T, tmpl core.Template) *core.Detector {
	t.Helper()
	d, err := core.New(detectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetTemplate(tmpl); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestEngineMatchesSequential is the acceptance criterion: the engine's
// alert stream on a recorded scenario trace is bit-identical to the
// sequential core.Detector run on the same frames, across attack types
// (and a clean trace with no alerts).
func TestEngineMatchesSequential(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	scenarios := []string{
		"fusion/idle/SI-100",
		"fusion/idle/FI-500",
		"fusion/cruise/MI4-50",
		"fusion/audio/WI-100",
		"fusion/idle/clean",
	}
	for _, name := range scenarios {
		tr := scenarioTrace(t, name)
		want := sequentialAlerts(newSequentialCore(t, tmpl), tr)
		if !strings.HasSuffix(name, "/clean") && len(want) == 0 {
			t.Fatalf("%s: sequential detector found no alerts; scenario too weak to test equality", name)
		}
		eng, err := engine.NewTrained(engine.Config{Core: detectorConfig()}, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := eng.Detect(context.Background(), tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine alerts differ from sequential detector\n got %d alerts\nwant %d alerts",
				name, len(got), len(want))
		}
		if st.Frames != uint64(len(tr)) {
			t.Errorf("%s: Stats.Frames = %d, want %d", name, st.Frames, len(tr))
		}
	}
}

// TestEngineDeterministicAcrossRuns re-runs the same input repeatedly
// and demands the identical alert sequence every time.
func TestEngineDeterministicAcrossRuns(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/SI-100")
	eng, err := engine.NewTrained(engine.Config{Core: detectorConfig()}, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	var first []detect.Alert
	for i := 0; i < 5; i++ {
		got, _, err := eng.Detect(context.Background(), tr)
		if err != nil {
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

// alertKey is the deterministic output order: window end, then stream
// rank (core before baselines, in Config.Baselines order).
func alertRank(name string, baselines []detect.Detector) int {
	for i, b := range baselines {
		if b.Name() == name {
			return i + 1
		}
	}
	return 0
}

// TestEngineWithBaselines checks the merged multi-detector stream: it
// must equal the union of each detector's sequential alerts, ordered by
// (WindowEnd, stream rank). The second input puts the baselines off the
// core window's phase (Müter 700 ms, Song 1.3 s) and cuts a gap
// [k s − 400 ms, k s + 50 ms) out of the stream every second, so one
// record closes a baseline window that ends strictly between the
// previous record and a core boundary — the case that breaks if the
// baselines see a record only after its window walk.
func TestEngineWithBaselines(t *testing.T) {
	_, tmpl, windows := loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/FI-500")
	var gapped trace.Trace
	for _, r := range tr {
		inGap := false
		for k := 1; k <= 20; k++ {
			at := time.Duration(k) * time.Second
			if r.Time >= at-400*time.Millisecond && r.Time < at+50*time.Millisecond {
				inGap = true
				break
			}
		}
		if !inGap {
			gapped = append(gapped, r)
		}
	}
	offMuter, offSong := baseline.DefaultMuterConfig(), baseline.DefaultSongConfig()
	offMuter.Window = 700 * time.Millisecond
	offSong.Window = 1300 * time.Millisecond

	for _, tc := range []struct {
		name  string
		tr    trace.Trace
		muter baseline.MuterConfig
		song  baseline.SongConfig
	}{
		{"default", tr, baseline.DefaultMuterConfig(), baseline.DefaultSongConfig()},
		{"off-phase-gaps", gapped, offMuter, offSong},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newBaselines := func() []detect.Detector {
				m, err := baseline.NewMuter(tc.muter)
				if err != nil {
					t.Fatal(err)
				}
				s, err := baseline.NewSong(tc.song)
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

			// Expected: per-detector sequential streams, merged by key.
			ref := newBaselines()
			var want []detect.Alert
			want = append(want, sequentialAlerts(newSequentialCore(t, tmpl), tc.tr)...)
			for _, b := range ref {
				want = append(want, sequentialAlerts(b, tc.tr)...)
			}
			sortAlertsByMergeOrder(want, ref)

			eng, err := engine.NewTrained(engine.Config{
				Core:      detectorConfig(),
				Baselines: newBaselines(),
			}, tmpl)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := eng.Detect(context.Background(), tc.tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("expected some alerts from the flooding scenario")
			}
			if !reflect.DeepEqual(got, want) {
				gotN := map[string]int{}
				for _, a := range got {
					gotN[a.Detector]++
				}
				wantN := map[string]int{}
				for _, a := range want {
					wantN[a.Detector]++
				}
				t.Fatalf("merged stream differs: got %v, want %v", gotN, wantN)
			}
		})
	}
}

// TestEngineLiveStream runs a scenario as a live feed (simulation
// goroutine → bounded channel → engine) and checks it matches the
// recorded-trace run — the recorded and live paths must agree.
func TestEngineLiveStream(t *testing.T) {
	specs, tmpl, _ := loadFixture(t)
	want := sequentialAlerts(newSequentialCore(t, tmpl), scenarioTrace(t, "fusion/idle/SI-100"))

	spec, _ := scenario.Find(specs, "fusion/idle/SI-100")
	ctx := context.Background()
	ch := make(chan trace.Record, 64)
	streamErr := make(chan error, 1)
	go func() { streamErr <- spec.Stream(ctx, ch) }()

	eng, err := engine.NewTrained(engine.Config{Core: detectorConfig()}, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	var got []detect.Alert
	if _, err := eng.Run(ctx, engine.NewChanSource(ctx, ch), func(a detect.Alert) { got = append(got, a) }); err != nil {
		t.Fatal(err)
	}
	if err := <-streamErr; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live stream alerts differ from recorded trace: got %d want %d", len(got), len(want))
	}
}

// TestEngineCancel cancels a run whose source never ends; Run must
// return promptly with the context error instead of deadlocking.
func TestEngineCancel(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan trace.Record) // never closed, never fed after cancel
	eng, err := engine.NewTrained(engine.Config{Core: detectorConfig()}, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx, engine.NewChanSource(ctx, ch), func(detect.Alert) {})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled run returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled run did not return within 10s")
	}
}

// TestEngineEmptySource: an immediately-EOF source yields no windows, no
// alerts and no error.
func TestEngineEmptySource(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	eng, err := engine.NewTrained(engine.Config{Core: detectorConfig()}, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	alerts, st, err := eng.Detect(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 || st.Frames != 0 || st.Windows != 0 {
		t.Fatalf("empty source produced frames=%d windows=%d alerts=%d", st.Frames, st.Windows, len(alerts))
	}
}

// TestEngineSourceError: a decode error mid-stream surfaces as Run's
// error and shuts the pipeline down cleanly.
func TestEngineSourceError(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	log := "(1.000000) can0 123#DEAD\n(1.100000) can0 bogus-line\n"
	src, err := engine.NewLogSource(strings.NewReader(log), trace.FormatCandump)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewTrained(engine.Config{Core: detectorConfig()}, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run(context.Background(), src, func(detect.Alert) {})
	if err == nil {
		t.Fatal("malformed log did not surface an error")
	}
}

// TestEngineSteadyStateAllocs is the alloc-regression guard for the
// per-frame path and the window close: a whole engine run over a clean
// scenario trace must amortize to well under one allocation per frame,
// and a warm run over the same trace cut to half length must allocate
// no less — the fixed per-run setup is all a run allocates, because the
// lane's counter and measurement vectors are reset and reused in place. A regression that allocates per record lands at
// ≥1 allocs/frame; one that allocates per window grows with the window
// count.
func TestEngineSteadyStateAllocs(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	full := scenarioTrace(t, "fusion/idle/clean")
	half := full[:len(full)/2]
	eng, err := engine.NewTrained(engine.Config{Core: detectorConfig()}, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	warmAllocs := func(tr trace.Trace) (float64, uint64) {
		_, st, err := eng.Detect(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, _, err := eng.Detect(ctx, tr); err != nil {
				t.Fatal(err)
			}
		}), st.Windows
	}
	avgHalf, winHalf := warmAllocs(half)
	avgFull, winFull := warmAllocs(full)
	if perFrame := avgFull / float64(len(full)); perFrame > 0.25 {
		t.Errorf("engine allocates %.3f allocs/frame (%.0f per run over %d frames); per-frame path must stay allocation-free",
			perFrame, avgFull, len(full))
	}
	if winFull <= winHalf {
		t.Fatalf("full trace closed %d windows, half closed %d; the trace is too short to compare", winFull, winHalf)
	}
	if avgFull > avgHalf {
		t.Errorf("warm run allocates %.0f over %d windows but %.0f over %d; allocations must not grow with the window count",
			avgFull, winFull, avgHalf, winHalf)
	}
}

// TestEngineUntrained: without a template the engine counts windows but
// never alerts, matching an untrained sequential detector.
func TestEngineUntrained(t *testing.T) {
	loadFixture(t)
	tr := scenarioTrace(t, "fusion/idle/SI-100")
	eng, err := engine.New(engine.Config{Core: detectorConfig()})
	if err != nil {
		t.Fatal(err)
	}
	alerts, st, err := eng.Detect(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("untrained engine alerted %d times", len(alerts))
	}
	if st.Windows == 0 {
		t.Fatal("untrained engine closed no windows")
	}
}
