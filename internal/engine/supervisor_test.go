package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/gateway"
	"canids/internal/response"
	"canids/internal/trace"
)

// retag returns a copy of the trace with every record assigned to the
// given bus channel.
func retag(tr trace.Trace, channel string) trace.Trace {
	out := make(trace.Trace, len(tr))
	for i, r := range tr {
		r.Channel = channel
		out[i] = r
	}
	return out
}

// interleave merges several per-bus traces into one mixed stream in
// timestamp order — what a multi-bus capture looks like.
func interleave(traces ...trace.Trace) trace.Trace {
	var out trace.Trace
	for _, tr := range traces {
		out = append(out, tr...)
	}
	out.Sort()
	return out
}

// TestSupervisorMatchesPerBusEngines is the multi-bus contract: a
// supervisor fed an interleaved two-bus stream produces, per bus, the
// exact alert stream a dedicated engine produces on that bus alone.
func TestSupervisorMatchesPerBusEngines(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	busA := retag(scenarioTrace(t, "fusion/idle/SI-100"), "can-a")
	busB := retag(scenarioTrace(t, "fusion/idle/FI-500"), "can-b")
	mixed := interleave(busA, busB)

	want := make(map[string][]detect.Alert)
	for ch, tr := range map[string]trace.Trace{"can-a": busA, "can-b": busB} {
		eng, err := engine.NewTrained(engine.Config{Core: detectorConfig()}, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		alerts, _, err := eng.Detect(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(alerts) == 0 {
			t.Fatalf("%s: no alerts; scenario too weak", ch)
		}
		want[ch] = alerts
	}

	sup, err := engine.NewSupervisor(engine.SupervisorConfig{
		NewEngine: func(channel string) (*engine.Engine, error) {
			return engine.NewTrained(engine.Config{Core: detectorConfig()}, tmpl)
		},
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
	for ch, w := range want {
		if !reflect.DeepEqual(got[ch], w) {
			t.Errorf("%s: supervisor alerts differ from dedicated engine (got %d, want %d)", ch, len(got[ch]), len(w))
		}
	}
	if chs := sup.Channels(); !reflect.DeepEqual(chs, []string{"can-a", "can-b"}) {
		t.Errorf("Channels() = %v", chs)
	}
	if stats["can-a"].Frames != uint64(len(busA)) || stats["can-b"].Frames != uint64(len(busB)) {
		t.Errorf("per-bus frames %d/%d, want %d/%d",
			stats["can-a"].Frames, stats["can-b"].Frames, len(busA), len(busB))
	}
	total := sup.TotalStats()
	if total.Frames != uint64(len(mixed)) {
		t.Errorf("TotalStats.Frames = %d, want %d", total.Frames, len(mixed))
	}
	if total.Alerts != uint64(len(got["can-a"])+len(got["can-b"])) {
		t.Errorf("TotalStats.Alerts = %d", total.Alerts)
	}
}

// TestSupervisorPrevention runs per-bus prevention loops: each bus gets
// its own gateway + responder, and each bus's dropped set matches its
// dedicated-engine run.
func TestSupervisorPrevention(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	pool := scenarioLegalPool(t, "fusion/idle/SI-100")
	busA := retag(scenarioTrace(t, "fusion/idle/SI-100"), "can-a")
	busB := retag(scenarioTrace(t, "fusion/idle/clean"), "can-b")
	mixed := interleave(busA, busB)

	_, wantDropA, _, _ := sequentialPrevention(t, tmpl, nil, pool, 30*time.Second, busA)
	if len(wantDropA) == 0 {
		t.Fatal("attack bus dropped nothing")
	}

	// OnDrop fires on each bus's own dispatch goroutine; the shared map
	// needs locking (per-bus order is still deterministic).
	var dropMu sync.Mutex
	droppedBy := make(map[string][]droppedRec)
	sup, err := engine.NewSupervisor(engine.SupervisorConfig{
		NewEngine: func(channel string) (*engine.Engine, error) {
			gw, err := gateway.New(gateway.DefaultConfig(nil))
			if err != nil {
				return nil, err
			}
			cfg := response.DefaultConfig(pool)
			cfg.Quarantine = 30 * time.Second
			resp, err := response.New(gw, cfg)
			if err != nil {
				return nil, err
			}
			return engine.NewTrained(engine.Config{
				Core: detectorConfig(), Gateway: gw, Responder: resp,
				OnDrop: func(r trace.Record, v gateway.Verdict) {
					dropMu.Lock()
					droppedBy[channel] = append(droppedBy[channel], droppedRec{rec: r, v: v})
					dropMu.Unlock()
				},
			}, tmpl)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Run(context.Background(), engine.NewSliceSource(mixed), func(string, detect.Alert) {}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(droppedBy["can-a"], wantDropA) {
		t.Errorf("attack-bus dropped set differs (got %d, want %d)", len(droppedBy["can-a"]), len(wantDropA))
	}
	if len(droppedBy["can-b"]) != 0 {
		t.Errorf("clean bus dropped %d frames", len(droppedBy["can-b"]))
	}
	total := sup.TotalStats()
	if total.Dropped != uint64(len(wantDropA)) || total.DroppedInjected == 0 {
		t.Errorf("TotalStats dropped=%d droppedInjected=%d", total.Dropped, total.DroppedInjected)
	}
}

// TestSupervisorErrors pins factory and source failure propagation.
func TestSupervisorErrors(t *testing.T) {
	if _, err := engine.NewSupervisor(engine.SupervisorConfig{}); err == nil {
		t.Error("nil factory accepted")
	}
	sup, err := engine.NewSupervisor(engine.SupervisorConfig{
		NewEngine: func(channel string) (*engine.Engine, error) {
			return nil, fmt.Errorf("no engine for %s", channel)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Trace{{Time: 0, Channel: "x"}}
	if _, err := sup.Run(context.Background(), engine.NewSliceSource(tr), func(string, detect.Alert) {}); err == nil ||
		!strings.Contains(err.Error(), "no engine for x") {
		t.Errorf("factory error not surfaced: %v", err)
	}
}

// TestSupervisorCancel: cancellation mid-stream unwinds every bus
// pipeline.
func TestSupervisorCancel(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	sup, err := engine.NewSupervisor(engine.SupervisorConfig{
		Buffer: 2,
		NewEngine: func(string) (*engine.Engine, error) {
			return engine.NewTrained(engine.Config{Core: detectorConfig()}, tmpl)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan trace.Record) // never closed
	done := make(chan error, 1)
	go func() {
		_, err := sup.Run(ctx, engine.NewChanSource(ctx, ch), func(string, detect.Alert) {})
		done <- err
	}()
	ch <- trace.Record{Time: 0, Channel: "a"}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled supervisor returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled supervisor did not return")
	}
}

// TestSupervisorBatchedMatchesPerRecord pins the slab fast path, in
// classic and fleet mode: a supervisor fed the mixed stream through a
// ChanBatchSource (slabs of varying sizes, recycled through a pool)
// produces exactly the per-bus alert streams of a per-record source, and
// its Tap sees exactly the same per-bus records in sub-slabs of at most
// DefaultBatch — batching is a transport detail, never a semantic one.
func TestSupervisorBatchedMatchesPerRecord(t *testing.T) {
	_, tmpl, _ := loadFixture(t)
	busA := retag(scenarioTrace(t, "fusion/idle/SI-100"), "can-a")
	busB := retag(scenarioTrace(t, "fusion/idle/FI-500"), "can-b")
	mixed := interleave(busA, busB)

	for _, mode := range []string{"classic", "fleet"} {
		t.Run(mode, func(t *testing.T) {
			type result struct {
				alerts map[string][]detect.Alert
				tapped map[string]trace.Trace
				maxSub int
			}
			run := func(src engine.Source) result {
				res := result{alerts: make(map[string][]detect.Alert), tapped: make(map[string]trace.Trace)}
				cfg := engine.SupervisorConfig{
					Tap: func(ch string, slab []trace.Record) {
						res.tapped[ch] = append(res.tapped[ch], slab...)
						res.maxSub = max(res.maxSub, len(slab))
					},
				}
				if mode == "fleet" {
					cfg.Fleet = &engine.FleetConfig{Engines: 2, Model: fleetModel(t)}
				} else {
					cfg.NewEngine = func(string) (*engine.Engine, error) {
						return engine.NewTrained(engine.Config{Core: detectorConfig()}, tmpl)
					}
				}
				sup, err := engine.NewSupervisor(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sup.Run(context.Background(), src, func(ch string, a detect.Alert) {
					res.alerts[ch] = append(res.alerts[ch], a)
				}); err != nil {
					t.Fatal(err)
				}
				return res
			}

			want := run(engine.NewSliceSource(mixed))

			pool := engine.NewRecordPool(8, 64)
			feed := make(chan []trace.Record, 4)
			recycled := 0
			go func() {
				defer close(feed)
				// Deterministically varied slab sizes, including size 1, a
				// deliberately empty slab the source must skip, and one
				// large enough to split past DefaultBatch per bus.
				sizes := []int{1, 7, 64, 0, 13, 100, 300}
				i, k := 0, 0
				for i < len(mixed) {
					n := sizes[k%len(sizes)]
					k++
					if n > len(mixed)-i {
						n = len(mixed) - i
					}
					slab := append(pool.Get(), mixed[i:i+n]...)
					feed <- slab
					i += n
				}
			}()
			src := engine.NewChanBatchSource(context.Background(), feed, func(b []trace.Record) {
				recycled++
				pool.Put(b)
			})
			got := run(src)

			if !reflect.DeepEqual(got.alerts, want.alerts) {
				t.Errorf("batched feed alerts differ from per-record feed (buses got %d, want %d)", len(got.alerts), len(want.alerts))
			}
			for _, ch := range []string{"can-a", "can-b"} {
				if len(want.alerts[ch]) == 0 {
					t.Errorf("%s: no alerts; scenario too weak to compare", ch)
				}
				if !reflect.DeepEqual(got.tapped[ch], want.tapped[ch]) {
					t.Errorf("%s: Tap saw %d records batched, %d per record", ch, len(got.tapped[ch]), len(want.tapped[ch]))
				}
			}
			if !reflect.DeepEqual(want.tapped, map[string]trace.Trace{"can-a": busA, "can-b": busB}) {
				t.Error("per-record Tap does not see each bus's records in stream order")
			}
			if want.maxSub != 1 {
				t.Errorf("per-record source tapped a %d-record sub-slab, want 1", want.maxSub)
			}
			if got.maxSub > engine.DefaultBatch {
				t.Errorf("batched sub-slab of %d records exceeds DefaultBatch %d", got.maxSub, engine.DefaultBatch)
			}
			if recycled == 0 {
				t.Error("batch source never recycled a slab")
			}
		})
	}
}
