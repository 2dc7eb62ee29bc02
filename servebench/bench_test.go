package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"canids/internal/engine"
	"canids/internal/engine/scenario"
	"canids/internal/trace"
)

// TestPercentileTail pins the reporting rule: a percentile needs at
// least minTail samples beyond it.
func TestPercentileTail(t *testing.T) {
	samples := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Microsecond // unsorted on purpose
		}
		return out
	}
	p99, err := percentile(samples(1000), 0.99)
	if err != nil {
		t.Fatalf("1000 samples leave 10 beyond p99: %v", err)
	}
	if p99 != 990*time.Microsecond {
		t.Fatalf("p99 of 1..1000 µs = %v, want 990µs", p99)
	}
	if _, err := percentile(samples(999), 0.99); err == nil {
		t.Fatal("999 samples leave 9 beyond p99, want an error")
	}
	if p50, err := percentile(samples(21), 0.5); err != nil || p50 != 11*time.Microsecond {
		t.Fatalf("p50 of 1..21 µs = %v, %v; want 11µs", p50, err)
	}
	if _, err := percentile(samples(15), 0.5); err == nil {
		t.Fatal("15 samples leave 7 beyond p50, want an error")
	}
}

// TestGateRejectsTamperedCounts checks that the correctness gate fails
// a run whose served counts or frame accounting disagree with the
// reference, and that refused or lost records are accounted for
// rather than failed.
func TestGateRejectsTamperedCounts(t *testing.T) {
	ref := map[string]busCounts{"bus0": {Alerts: 12, Dropped: 3, Shed: 5}, "bus1": {Alerts: 4, Promotions: 2}}
	served := map[string]busCounts{"bus0": {Alerts: 12, Dropped: 3, Shed: 5}, "bus1": {Alerts: 4, Promotions: 2}}
	if err := compareCounts(served, ref, nil); err != nil {
		t.Fatalf("equal counts rejected: %v", err)
	}
	served["bus1"] = busCounts{Alerts: 5, Promotions: 2}
	if err := compareCounts(served, ref, nil); err == nil || !strings.Contains(err.Error(), "bus1") {
		t.Fatalf("tampered alert count passed the gate (err %v)", err)
	}
	if err := compareCounts(served, ref, map[string]bool{"bus1": true}); err != nil {
		t.Fatalf("a bus that lost records is not compared, but was: %v", err)
	}
	served["bus1"] = busCounts{Alerts: 4, Promotions: 2}
	served["bus0"] = busCounts{Alerts: 12, Dropped: 3, Shed: 4}
	if err := compareCounts(served, ref, nil); err == nil {
		t.Fatal("tampered shed count passed the gate")
	}
	delete(served, "bus1")
	if err := compareCounts(served, ref, map[string]bool{"bus1": true}); err == nil {
		t.Fatal("missing bus passed the gate")
	}

	accepted := map[string]uint64{"bus0": 100, "bus1": 0}
	stats := map[string]engine.Stats{"bus0": {Frames: 90, Lost: 4, Shed: 6}}
	health := map[string]engine.BusHealth{"bus0": {Accepted: 94}}
	if err := accounting(accepted, stats, health); err != nil {
		t.Fatalf("consistent accounting rejected: %v", err)
	}
	stats["bus0"] = engine.Stats{Frames: 89, Lost: 4, Shed: 6}
	if err := accounting(accepted, stats, health); err == nil {
		t.Fatal("a frame missing from frames + lost + shed passed the gate")
	}
	stats["bus0"] = engine.Stats{Frames: 90, Lost: 4, Shed: 6}
	health["bus0"] = engine.BusHealth{Accepted: 93}
	if err := accounting(accepted, stats, health); err == nil {
		t.Fatal("a supervisor count off frames + lost passed the gate")
	}
	health["bus0"] = engine.BusHealth{Accepted: 94}
	stats["bus2"] = engine.Stats{Frames: 1}
	if err := accounting(accepted, stats, health); err == nil {
		t.Fatal("a bus no accepted request carried passed the gate")
	}
}

// TestReplayedSegmentsDecodeLikeFreshRenders checks the compact-input
// scheme: a body re-stamped in place for a later cycle decodes to
// exactly the records a fresh render of that cycle gives.
func TestReplayedSegmentsDecodeLikeFreshRenders(t *testing.T) {
	specs := scenario.Matrix(3)
	for _, format := range []trace.Format{trace.FormatBinary, trace.FormatCandump} {
		buses := []busSource{
			{channel: "veh-00", spec: vehicleSpec(profileSpecs(specs, "fusion")[2], 0)},
			{channel: "veh-01", spec: vehicleSpec(profileSpecs(specs, "fusion")[1], 1)},
		}
		tr, err := perBusTraffic(buses, format)
		if err != nil {
			t.Fatal(err)
		}
		mixed, err := mixedTraffic(specs, []string{"fusion/idle/clean", "fusion/cruise/SI-100"}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if format == trace.FormatCandump {
			if mixed, err = mixed.rerender(format); err != nil {
				t.Fatal(err)
			}
		}
		for _, tc := range []*traffic{tr, mixed} {
			n := 3 * tc.streams * tc.perCycle
			for _, j := range []int{0, 1, n/2 + 1, n - 1} {
				b, shift := tc.request(j)
				b.stamp(shift)
				got, err := decodeAll(format, b.data)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := newBody(b.route, b.channel, format, b.shifted(nil, "", shift))
				if err != nil {
					t.Fatal(err)
				}
				want, err := decodeAll(format, fresh.data)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%v request %d (shift %v): re-stamped body decodes to %d records unlike a fresh render's %d",
						format, j, shift, len(got), len(want))
				}
				if got[0].Time < captureEpoch+shift || got[0].Time >= captureEpoch+shift+tc.cycle {
					t.Fatalf("%v request %d: first record at %v, outside cycle %v", format, j, got[0].Time, shift)
				}
			}
		}
	}
}

// TestRecordSourceFollowsRequests checks that the offline reference
// reads the same per-bus stream the server was sent.
func TestRecordSourceFollowsRequests(t *testing.T) {
	tr, err := mixedTraffic(scenario.Matrix(1), []string{"fusion/idle/clean", "fusion/audio/SI-100"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	var all, bus1 []trace.Record
	for _, src := range []struct {
		ch  string
		dst *[]trace.Record
	}{{"", &all}, {"bus1", &bus1}} {
		s := newRecordSource(tr, src.ch, n, nil)
		for {
			rec, err := s.Next()
			if err != nil {
				break
			}
			*src.dst = append(*src.dst, rec)
		}
	}
	if len(all) != tr.frames(0, n) {
		t.Fatalf("source yielded %d records, requests hold %d", len(all), tr.frames(0, n))
	}
	var want []trace.Record
	for _, r := range all {
		if r.Channel == "bus1" {
			want = append(want, r)
		}
	}
	if !reflect.DeepEqual(bus1, want) {
		t.Fatalf("per-bus source yielded %d records, want %d", len(bus1), len(want))
	}
	for i := 1; i < len(bus1); i++ {
		if bus1[i].Time < bus1[i-1].Time {
			t.Fatalf("bus1 record %d goes back in time", i)
		}
	}

	// A refused request's records never reached the engines, so the
	// reference skips them.
	ok := []bool{true, false, true, true, false}
	s := newRecordSource(tr, "", n, ok)
	got := 0
	for {
		if _, err := s.Next(); err != nil {
			break
		}
		got++
	}
	if want := tr.frames(0, 1) + tr.frames(2, 4); got != want {
		t.Fatalf("masked source yielded %d records, the accepted requests hold %d", got, want)
	}
}

// TestBenchmarkJSONListsReportedMetrics keeps BENCHMARK.json and the
// metrics the benchmark reports in step, names and units.
func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{{b.EndToEnd, e2eUnits}, {b.PerLayer, layerUnits}} {
		if len(c.listed) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.listed), len(c.units))
		}
		for _, m := range c.listed {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s): reported unit %q", m.Name, m.Unit, u)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}
