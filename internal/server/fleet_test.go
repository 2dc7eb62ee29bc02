package server_test

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"canids/internal/adapt"
	"canids/internal/engine"
	"canids/internal/server"
	"canids/internal/trace"
)

// spread copies a capture across n vehicle channels round-robin — the
// cheap stand-in for a fleet of similar vehicles.
func spread(tr trace.Trace, n int) trace.Trace {
	out := make(trace.Trace, len(tr))
	for i, r := range tr {
		r.Channel = "veh-" + string(rune('a'+i%n))
		out[i] = r
	}
	return out
}

// TestServeFleetMode drives the serving daemon in fleet mode: ten
// vehicles over two host engines through the mixed-bus endpoint, counts
// reconciling per vehicle, and one /admin/reload converging every lane
// to a single new epoch.
func TestServeFleetMode(t *testing.T) {
	snap, clean, _ := loadFixture(t)
	const vehicles = 10
	mixed := spread(clean, vehicles)
	half := len(mixed) / 2

	s, url := startServer(t, server.Config{
		Snapshot: snap,
		Fleet:    &server.FleetOptions{Engines: 2},
	})
	if code := post(t, url+"/ingest?format=csv", encodeCSV(t, mixed[:half]), nil); code != http.StatusOK {
		t.Fatalf("first ingest status %d", code)
	}
	var st struct {
		Epoch uint64                  `json:"epoch"`
		Buses map[string]engine.Stats `json:"buses"`
	}
	if code := get(t, url+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Epoch != 1 {
		t.Errorf("serving epoch %d before reload, want 1", st.Epoch)
	}

	var rel struct {
		Swapped []string `json:"swapped_buses"`
	}
	if code := post(t, url+"/admin/reload", encodeSnapshot(t, snap), &rel); code != http.StatusOK {
		t.Fatalf("reload status %d", code)
	}
	if len(rel.Swapped) != vehicles {
		t.Errorf("reload swapped %d lanes, want %d", len(rel.Swapped), vehicles)
	}
	// Lanes install the new model at their next window boundary; the
	// second half of the stream carries every vehicle across several.
	if code := post(t, url+"/ingest?format=csv", encodeCSV(t, mixed[half:]), nil); code != http.StatusOK {
		t.Fatalf("second ingest status %d", code)
	}
	var down struct {
		Total engine.Stats            `json:"total"`
		Buses map[string]engine.Stats `json:"buses"`
	}
	if code := post(t, url+"/admin/shutdown", nil, &down); code != http.StatusOK {
		t.Fatalf("shutdown status %d", code)
	}
	if len(down.Buses) != vehicles {
		t.Fatalf("%d vehicles served, want %d", len(down.Buses), vehicles)
	}
	if down.Total.Frames != uint64(len(mixed)) {
		t.Errorf("total frames %d, want %d", down.Total.Frames, len(mixed))
	}
	var perBus uint64
	for ch, b := range down.Buses {
		if b.Lost != 0 {
			t.Errorf("%s: lost %d frames", ch, b.Lost)
		}
		perBus += b.Frames
	}
	if perBus != down.Total.Frames {
		t.Errorf("per-vehicle frames sum %d != total %d", perBus, down.Total.Frames)
	}
	if got := s.Model().Epoch(); got != 2 {
		t.Errorf("serving epoch %d after reload, want 2", got)
	}
	for ch, h := range s.Health() {
		if h.Epoch != 2 {
			t.Errorf("%s: lane epoch %d after reload + traffic, want 2", ch, h.Epoch)
		}
	}
}

// TestServeFleetRejectsAdaptAndFault pins the fleet v1 gates: a fleet
// server cannot also adapt, and a quota needs a window. Fault injection
// is allowed: fleet lanes carry the engine's fault seams
// (TestServeEnginePanicRestart's fleet leg).
func TestServeFleetRejectsAdaptAndFault(t *testing.T) {
	snap, _, _ := loadFixture(t)
	if _, err := server.New(server.Config{
		Snapshot: snap,
		Fleet:    &server.FleetOptions{Engines: 2},
		Adapt:    &server.AdaptOptions{Every: 1, MinWindows: 1},
	}); err == nil {
		t.Error("fleet + adapt accepted")
	}
	if _, err := server.New(server.Config{
		Snapshot:    snap,
		QuotaFrames: 10,
	}); err == nil {
		t.Error("quota without a window accepted")
	}
}

// TestServeFleetQuotaShed429: a vehicle that floods past its ingest
// quota has the overflow shed deterministically at the demux, and once
// the gate is latched the ingest route answers 429 with a Retry-After
// hint instead of accepting more of the flood.
func TestServeFleetQuotaShed429(t *testing.T) {
	snap, clean, _ := loadFixture(t)
	_, url := startServer(t, server.Config{
		Snapshot: snap,
		Fleet:    &server.FleetOptions{Engines: 1},
		// Far below the capture's frame rate: every window overflows, so
		// the over-quota latch is still set when the stream ends.
		QuotaFrames: 50,
		QuotaWindow: time.Second,
	})
	var ing struct {
		Records int `json:"records"`
	}
	if code := post(t, url+"/ingest/veh-flood?format=csv", encodeCSV(t, clean), &ing); code != http.StatusOK {
		t.Fatalf("first ingest status %d", code)
	}
	if ing.Records != len(clean) {
		t.Fatalf("accepted %d records, want %d (shedding happens past the demux, not at HTTP)", ing.Records, len(clean))
	}

	// The demux drains asynchronously; wait for the quota gate to latch.
	// A probe answered before the latch ingested its records too.
	sent := len(clean)
	probe := clean[:10]
	deadline := time.Now().Add(5 * time.Second)
	var resp *http.Response
	for {
		var err error
		resp, err = http.Post(url+"/ingest/veh-flood?format=csv", "text/csv", bytes.NewReader(encodeCSV(t, probe)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			sent += len(probe)
		}
		if resp.StatusCode == http.StatusTooManyRequests || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flooding ingest status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After hint")
	}

	var down struct {
		Buses map[string]engine.Stats `json:"buses"`
	}
	if code := post(t, url+"/admin/shutdown", nil, &down); code != http.StatusOK {
		t.Fatalf("shutdown status %d", code)
	}
	st := down.Buses["veh-flood"]
	if st.Shed == 0 {
		t.Error("quota shed nothing below a 50-frame/s cap")
	}
	if st.Frames+st.Shed != uint64(sent) {
		t.Errorf("frames %d + shed %d != ingested %d", st.Frames, st.Shed, sent)
	}
}

// TestServeAdaptConfigure exercises the per-bus adaptation knobs over
// HTTP: POST /admin/adapt?action=configure retunes cadence and warm-up
// on a live bus, and the new values echo in the adapt status.
func TestServeAdaptConfigure(t *testing.T) {
	snap := gatewaySnapshot(t)
	_, clean, _ := loadFixture(t)
	_, url := startServer(t, server.Config{
		Snapshot: snap,
		Adapt:    &server.AdaptOptions{Every: 50, MinWindows: 50, RateSlack: 2},
	})
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, clean), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	var cfgResp struct {
		Action string   `json:"action"`
		Buses  []string `json:"buses"`
		Every  int      `json:"every"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code := authReq(t, "POST", url+"/admin/adapt?action=configure&every=2&min_windows=2", "", nil, &cfgResp)
		if code == http.StatusOK && len(cfgResp.Buses) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("configure never reached a live bus: %d %+v", code, cfgResp)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cfgResp.Every != 2 {
		t.Errorf("configure echo every=%d, want 2", cfgResp.Every)
	}
	var st struct {
		Buses map[string]adapt.Status `json:"buses"`
	}
	if code := authReq(t, "GET", url+"/admin/adapt", "", nil, &st); code != http.StatusOK {
		t.Fatalf("adapt status %d", code)
	}
	b, ok := st.Buses["ms-can"]
	if !ok {
		t.Fatalf("ms-can missing from adapt status: %+v", st.Buses)
	}
	if b.Every != 2 || b.MinWindows != 2 {
		t.Errorf("live knobs every=%d min_windows=%d, want 2/2", b.Every, b.MinWindows)
	}

	// Knobless configure and junk counts are rejected without touching
	// anything; unknown channels 400.
	if code := authReq(t, "POST", url+"/admin/adapt?action=configure", "", nil, nil); code != http.StatusBadRequest {
		t.Errorf("knobless configure status %d, want 400", code)
	}
	if code := authReq(t, "POST", url+"/admin/adapt?action=configure&every=-3", "", nil, nil); code != http.StatusBadRequest {
		t.Errorf("negative cadence status %d, want 400", code)
	}
	if code := authReq(t, "POST", url+"/admin/adapt?action=configure&every=2&channel=no-such-bus", "", nil, nil); code != http.StatusBadRequest {
		t.Errorf("unknown channel status %d, want 400", code)
	}
}
