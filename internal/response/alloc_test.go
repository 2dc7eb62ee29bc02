package response

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/engine/scenario"
	"canids/internal/gateway"
	"canids/internal/vehicle"
)

// fusion is the catalogue's fusion pool and the alerts of its idle-drive
// attack scenarios, simulated once per test binary.
var fusion struct {
	once   sync.Once
	pool   []can.ID
	alerts []detect.Alert
	err    error
}

func fusionAlerts(tb testing.TB) ([]can.ID, []detect.Alert) {
	tb.Helper()
	fusion.once.Do(func() {
		specs := scenario.Matrix(1)
		cfg := core.DefaultConfig()
		tmpl, err := scenario.Train(specs, "fusion", cfg)
		if err != nil {
			fusion.err = err
			return
		}
		for _, s := range specs {
			if s.Profile != "fusion" || s.Drive != vehicle.Idle || s.Clean() {
				continue
			}
			fusion.pool = vehicle.NewFusionProfile(s.ProfileSeed).IDSet()
			tr, err := s.Run()
			if err != nil {
				fusion.err = err
				return
			}
			d := core.MustNew(cfg)
			if err := d.SetTemplate(tmpl); err != nil {
				fusion.err = err
				return
			}
			for _, r := range tr {
				fusion.alerts = append(fusion.alerts, d.Observe(r)...)
			}
		}
	})
	if fusion.err != nil {
		tb.Fatalf("fusion alerts: %v", fusion.err)
	}
	if len(fusion.alerts) == 0 {
		tb.Fatal("no fusion alerts")
	}
	return fusion.pool, fusion.alerts
}

func fusionResponder(tb testing.TB, pool []can.ID) *Responder {
	tb.Helper()
	gw, err := gateway.New(gateway.DefaultConfig(nil))
	if err != nil {
		tb.Fatal(err)
	}
	r, err := New(gw, DefaultConfig(pool))
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// BenchmarkHandleAlert is one warm alert on the fusion pool at the
// paper's rank 10: inference plus the gateway block.
func BenchmarkHandleAlert(b *testing.B) {
	pool, alerts := fusionAlerts(b)
	r := fusionResponder(b, pool)
	for _, a := range alerts {
		if _, err := r.HandleAlert(a); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.HandleAlert(alerts[i%len(alerts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHandleAlertSteadyStateAllocs: once its scratch is grown, a
// responder handles an alert without allocating.
func TestHandleAlertSteadyStateAllocs(t *testing.T) {
	pool, alerts := fusionAlerts(t)
	r := fusionResponder(t, pool)
	for _, a := range alerts {
		if _, err := r.HandleAlert(a); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.HandleAlert(alerts[i%len(alerts)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("warm HandleAlert allocates %v times per alert, want 0", allocs)
	}
}

// TestResponderHeapFlat: a responder under sustained attack holds the
// same heap after 20k alerts as after 60k — it keeps no per-alert
// history.
func TestResponderHeapFlat(t *testing.T) {
	pool, alerts := fusionAlerts(t)
	r := fusionResponder(t, pool)
	const step = 20000
	handled := 0
	run := func(n int) uint64 {
		for ; n > 0; n-- {
			a := alerts[handled%len(alerts)]
			// A long run: every pass over the captured alerts is a later
			// stretch of the stream.
			shift := time.Duration(handled/len(alerts)) * time.Hour
			a.WindowStart += shift
			a.WindowEnd += shift
			if _, err := r.HandleAlert(a); err != nil {
				t.Fatal(err)
			}
			handled++
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	after1 := run(step)
	after3 := run(2 * step)
	runtime.KeepAlive(r)
	t.Logf("heap after %d alerts: %d B, after %d: %d B", step, after1, 3*step, after3)
	if after3 > after1+32<<10 {
		t.Errorf("heap grew by %d B over %d more alerts", after3-after1, 2*step)
	}
}

// TestSharedIndexConcurrent: responders built from one normalized
// policy share its index and rank on their own goroutines at once,
// each blocking what a lone responder blocks (run under -race).
func TestSharedIndexConcurrent(t *testing.T) {
	pool, alerts := fusionAlerts(t)
	cfg, err := DefaultConfig(pool).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	blocked := func(r *Responder) []can.ID {
		var out []can.ID
		for _, a := range alerts {
			act, err := r.HandleAlert(a)
			if err != nil {
				t.Error(err)
				return nil
			}
			out = append(out, act.Blocked...)
		}
		return out
	}
	newResp := func() *Responder {
		gw, err := gateway.New(gateway.DefaultConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(gw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := blocked(newResp())
	const n = 4
	got := make([][]can.ID, n)
	var wg sync.WaitGroup
	for i := range got {
		r := newResp()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = blocked(r)
		}()
	}
	wg.Wait()
	for i := range got {
		if !slices.Equal(got[i], want) {
			t.Errorf("responder %d blocked %v, alone %v", i, got[i], want)
		}
	}
}
