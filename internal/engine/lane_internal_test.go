package engine

import (
	"fmt"
	"log/slog"
	"runtime"
	"testing"

	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/gateway"
	"canids/internal/model"
	"canids/internal/response"
)

// flatModel is a model over a flat synthetic template; with armed set it
// also carries a whitelist, rate budgets and a response policy.
func flatModel(t testing.TB, armed bool) *model.Model {
	t.Helper()
	cfg := core.DefaultConfig()
	vec := func(v float64) []float64 {
		s := make([]float64, cfg.Width)
		for i := range s {
			s[i] = v
		}
		return s
	}
	spec := model.Spec{
		Epoch: 1, Core: cfg,
		Template: core.Template{Width: cfg.Width, Windows: 1,
			MeanH: vec(0.5), MinH: vec(0.4), MaxH: vec(0.6), MeanP: vec(0.5)},
	}
	if armed {
		pool := make([]can.ID, 64)
		budgets := make(map[can.ID]int, len(pool))
		for i := range pool {
			pool[i] = can.ID(0x100 + i)
			budgets[pool[i]] = 10
		}
		gp, err := gateway.NewPolicy(gateway.Config{Legal: pool, RateWindow: cfg.Window, Budgets: budgets})
		if err != nil {
			t.Fatal(err)
		}
		rc := response.DefaultConfig(pool)
		spec.Pool, spec.Gateway, spec.Response = pool, gp, &rc
	}
	m, err := model.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFleetLaneHeap measures the heap a spun-up fleet lane holds, bare
// and with gateway and responder armed, and keeps it under a ceiling:
// the per-vehicle marginal cost is what fleet mode exists to keep small.
// A lane holds its window counter and measurement vectors, its gateway
// and responder state — no detector of its own. Run with -v to see the
// figures.
func TestFleetLaneHeap(t *testing.T) {
	const n = 2000
	for _, tc := range []struct {
		armed   bool
		ceiling float64
	}{{false, 800}, {true, 1400}} {
		armed := tc.armed
		t.Run(fmt.Sprintf("armed=%v", armed), func(t *testing.T) {
			f := &fleetRun{log: slog.New(slog.DiscardHandler)}
			f.curModel.Store(flatModel(t, armed))
			chans := make([]chanState, n)
			for i := range chans {
				chans[i].name = fmt.Sprintf("veh-%d", i)
			}
			lanes := make([]*lane, n)
			sink := func(string, detect.Alert) {}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range lanes {
				l, err := f.spinUp(&chans[i], 0, sink)
				if err != nil {
					t.Fatal(err)
				}
				lanes[i] = l
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			per := float64(after.HeapAlloc-before.HeapAlloc) / n
			runtime.KeepAlive(lanes)
			t.Logf("heap per spun-up lane: %.0f B", per)
			if per > tc.ceiling {
				t.Errorf("a spun-up lane holds %.0f B of heap, want <= %.0f", per, tc.ceiling)
			}
		})
	}
}
