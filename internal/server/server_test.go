package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
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
	"canids/internal/gateway"
	"canids/internal/response"
	"canids/internal/server"
	"canids/internal/sim"
	"canids/internal/store"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

// fixture is the shared trained state: a snapshot from clean idle
// traffic plus clean and attacked probe traces.
var fixture = struct {
	once     sync.Once
	snap     *store.Snapshot
	clean    trace.Trace
	attacked trace.Trace
	err      error
}{}

func simulate(profileSeed, seed int64, scen vehicle.Scenario, d time.Duration, atk *attack.Config) (trace.Trace, error) {
	sched := sim.NewScheduler()
	b, err := bus.New(sched, bus.Config{BitRate: bus.DefaultMSCANBitRate, Channel: "ms-can"})
	if err != nil {
		return nil, err
	}
	var log trace.Trace
	b.Tap(func(r trace.Record) { log = append(log, r) })
	profile := vehicle.NewFusionProfile(profileSeed)
	profile.Attach(sched, b, vehicle.Options{Scenario: scen, Seed: seed})
	if atk != nil {
		if _, err := attack.Launch(sched, b, nil, *atk); err != nil {
			return nil, err
		}
	}
	if err := sched.RunUntil(d); err != nil {
		return nil, err
	}
	// Round-trip through CSV: the probe traces travel to the server as
	// CSV bodies (which carry µs timestamps), so the offline references
	// must see exactly what the wire delivers.
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, log); err != nil {
		return nil, err
	}
	dec, err := trace.NewDecoder(trace.FormatCSV, &buf)
	if err != nil {
		return nil, err
	}
	return trace.ReadAll(dec)
}

func loadFixture(t *testing.T) (*store.Snapshot, trace.Trace, trace.Trace) {
	t.Helper()
	fixture.once.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Alpha = 4
		training, err := simulate(1, 5, vehicle.Idle, 8*time.Second, nil)
		if err != nil {
			fixture.err = err
			return
		}
		windows := training.Windows(cfg.Window, false)
		tmpl, err := core.BuildTemplate(windows, cfg.Width, cfg.MinFrames)
		if err != nil {
			fixture.err = err
			return
		}
		fixture.snap, fixture.err = store.New(cfg, tmpl, training.IDs())
		if fixture.err != nil {
			return
		}
		fixture.clean, fixture.err = simulate(1, 11, vehicle.Idle, 6*time.Second, nil)
		if fixture.err != nil {
			return
		}
		fixture.attacked, fixture.err = simulate(1, 7, vehicle.Idle, 10*time.Second, &attack.Config{
			Scenario: attack.Single, IDs: []can.ID{0x0B5}, Frequency: 100,
			Start: 2 * time.Second, Seed: 9,
		})
	})
	if fixture.err != nil {
		t.Fatalf("fixture: %v", fixture.err)
	}
	return fixture.snap, fixture.clean, fixture.attacked
}

// startServer builds, starts and mounts a server, returning the test
// HTTP base URL and the server itself.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		// Drain, not just Done: the final checkpoint lands after the
		// pipeline stops, and t.TempDir removal must not race it.
		s.Drain() //nolint:errcheck // the canceled run's error is expected
	})
	return s, ts.URL
}

// post sends body and decodes the JSON response into out.
func post(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

func encodeCSV(t *testing.T, tr trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeSnapshot(t *testing.T, snap *store.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := store.Encode(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// offlineAlerts replays the snapshot's detector sequentially — the
// reference the served pipeline must match.
func offlineAlerts(t *testing.T, snap *store.Snapshot, tr trace.Trace) []detect.Alert {
	t.Helper()
	d, err := snap.Detector()
	if err != nil {
		t.Fatal(err)
	}
	var out []detect.Alert
	for _, r := range tr {
		out = append(out, d.Observe(r)...)
	}
	return append(out, d.Flush()...)
}

// TestServeMatchesOffline is the end-to-end guarantee the CI smoke leg
// scripts against: ingest a capture over HTTP, drain, and the alert
// count (and the alerts themselves) equal the offline sequential run.
func TestServeMatchesOffline(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	want := offlineAlerts(t, snap, attacked)
	if len(want) == 0 {
		t.Fatal("offline run found no alerts; fixture too weak")
	}

	s, url := startServer(t, server.Config{Snapshot: snap})
	var ing struct {
		Records int `json:"records"`
	}
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, attacked), &ing); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if ing.Records != len(attacked) {
		t.Fatalf("ingested %d records, want %d", ing.Records, len(attacked))
	}

	var down struct {
		AlertsTotal uint64                  `json:"alerts_total"`
		Total       engine.Stats            `json:"total"`
		Buses       map[string]engine.Stats `json:"buses"`
	}
	if code := post(t, url+"/admin/shutdown", nil, &down); code != http.StatusOK {
		t.Fatalf("shutdown status %d", code)
	}
	if down.AlertsTotal != uint64(len(want)) {
		t.Errorf("served %d alerts, offline run has %d", down.AlertsTotal, len(want))
	}
	if down.Total.Frames != uint64(len(attacked)) {
		t.Errorf("served %d frames, want %d", down.Total.Frames, len(attacked))
	}
	if _, ok := down.Buses["ms-can"]; !ok || len(down.Buses) != 1 {
		t.Errorf("buses = %v, want exactly ms-can", down.Buses)
	}

	got := s.Alerts(0)
	if len(got) != len(want) {
		t.Fatalf("alert ring holds %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Channel != "ms-can" || !reflect.DeepEqual(got[i].Alert, want[i]) {
			t.Fatalf("alert %d differs from offline run", i)
		}
	}
}

// TestServeMultiBus splits one capture across two channels through the
// mixed-bus endpoint: each bus gets its own engine and stats.
func TestServeMultiBus(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	mixed := append(trace.Trace(nil), attacked...)
	for i := range mixed {
		if i%2 == 0 {
			mixed[i].Channel = "can-a"
		} else {
			mixed[i].Channel = "can-b"
		}
	}
	_, url := startServer(t, server.Config{Snapshot: snap})
	if code := post(t, url+"/ingest?format=csv", encodeCSV(t, mixed), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	var health struct {
		Status string   `json:"status"`
		Buses  []string `json:"buses"`
	}
	if code := get(t, url+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz %d %q", code, health.Status)
	}
	var down struct {
		Buses map[string]engine.Stats `json:"buses"`
	}
	if code := post(t, url+"/admin/shutdown", nil, &down); code != http.StatusOK {
		t.Fatalf("shutdown status %d", code)
	}
	if len(down.Buses) != 2 {
		t.Fatalf("buses = %v, want can-a and can-b", down.Buses)
	}
	wantA, wantB := uint64((len(mixed)+1)/2), uint64(len(mixed)/2)
	if down.Buses["can-a"].Frames != wantA || down.Buses["can-b"].Frames != wantB {
		t.Errorf("per-bus frames %d/%d, want %d/%d",
			down.Buses["can-a"].Frames, down.Buses["can-b"].Frames, wantA, wantB)
	}
}

// TestServeHotReload serves a clean stream under its own template (no
// alerts), hot-swaps a foreign template mid-stream, and expects the
// post-reload windows to alert — the live proof the swap landed without
// restarting the pipeline.
func TestServeHotReload(t *testing.T) {
	snap, clean, _ := loadFixture(t)

	// A template trained on a differently-seeded profile: same shape,
	// disjoint identifier layout, so the clean stream deviates on it.
	foreignTraffic, err := simulate(2, 99, vehicle.Idle, 8*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	foreign := *snap
	foreignTmpl, err := core.BuildTemplate(foreignTraffic.Windows(snap.Core.Window, false), snap.Core.Width, snap.Core.MinFrames)
	if err != nil {
		t.Fatal(err)
	}
	foreign.Template = foreignTmpl

	s, url := startServer(t, server.Config{Snapshot: snap})
	half := len(clean) / 2
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, clean[:half]), nil); code != http.StatusOK {
		t.Fatalf("first ingest status %d", code)
	}
	// The ingest returns once the first half is in the bus feed, but a
	// swap lands at the lane's next window boundary: reloading
	// while the lane is still inside the first half would move the
	// swap point before the split. Wait until it has consumed all of it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, buses := s.Stats(); buses["ms-can"].Frames >= uint64(half) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("engine did not consume the first half within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	var rel struct {
		Swapped []string `json:"swapped_buses"`
	}
	if code := post(t, url+"/admin/reload", encodeSnapshot(t, &foreign), &rel); code != http.StatusOK {
		t.Fatalf("reload status %d", code)
	}
	if len(rel.Swapped) != 1 || rel.Swapped[0] != "ms-can" {
		t.Fatalf("swapped buses %v, want [ms-can]", rel.Swapped)
	}
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, clean[half:]), nil); code != http.StatusOK {
		t.Fatalf("second ingest status %d", code)
	}
	if code := post(t, url+"/admin/shutdown", nil, nil); code != http.StatusOK {
		t.Fatalf("shutdown status %d", code)
	}
	alerts := s.Alerts(0)
	if len(alerts) == 0 {
		t.Fatal("no alerts after swapping in a foreign template")
	}
	// The swap lands at a window boundary at or after the reload point:
	// nothing before it may alert (the stream is clean under its own
	// template), and the clean windows before the split must not have
	// been torn or re-scored.
	swapAt := clean[half].Time.Truncate(time.Microsecond)
	for _, a := range alerts {
		if a.Alert.WindowEnd <= swapAt {
			t.Errorf("alert for window ending %v predates the reload at %v", a.Alert.WindowEnd, swapAt)
		}
	}
	if got := s.Snapshot(); !reflect.DeepEqual(got.Template, foreignTmpl) {
		t.Error("Snapshot() does not report the reloaded template")
	}
}

// TestServeReloadRejections covers the reload error paths: corrupt
// bodies, core-config drift, and policy shapes the serving engines
// cannot adopt.
func TestServeReloadRejections(t *testing.T) {
	snap, _, _ := loadFixture(t)
	_, url := startServer(t, server.Config{Snapshot: snap})

	var errResp struct {
		Error string `json:"error"`
	}
	if code := post(t, url+"/admin/reload", []byte("garbage"), &errResp); code != http.StatusBadRequest {
		t.Errorf("corrupt reload status %d, want 400", code)
	}

	retuned := *snap
	retuned.Core.Alpha = 9
	if code := post(t, url+"/admin/reload", encodeSnapshot(t, &retuned), &errResp); code != http.StatusConflict {
		t.Errorf("core-drift reload status %d, want 409", code)
	}
	if !strings.Contains(errResp.Error, "core config") {
		t.Errorf("core-drift error %q", errResp.Error)
	}

	armed := *snap
	armed.Gateway = &store.GatewayPolicy{Legal: snap.Pool}
	if code := post(t, url+"/admin/reload", encodeSnapshot(t, &armed), &errResp); code != http.StatusConflict {
		t.Errorf("gateway-adding reload status %d, want 409", code)
	}

	// The symmetric shape checks, against a prevention server: dropping
	// policy sections or changing the rate window is a restart, not a
	// reload — and a rejected reload must leave the snapshot untouched.
	prevented := *snap
	prevented.Gateway = &store.GatewayPolicy{RateWindow: snap.Core.Window}
	prevented.Response = &store.ResponsePolicy{Rank: 10, BlockTop: 1}
	srv, url2 := startServer(t, server.Config{Snapshot: &prevented})
	detectOnly := *snap
	if code := post(t, url2+"/admin/reload", encodeSnapshot(t, &detectOnly), &errResp); code != http.StatusConflict {
		t.Errorf("policy-dropping reload status %d, want 409", code)
	}
	retimed := prevented
	gw := *prevented.Gateway
	gw.RateWindow = 2 * snap.Core.Window
	retimed.Gateway = &gw
	if code := post(t, url2+"/admin/reload", encodeSnapshot(t, &retimed), &errResp); code != http.StatusConflict {
		t.Errorf("rate-window reload status %d, want 409", code)
	}
	if !strings.Contains(errResp.Error, "rate window") {
		t.Errorf("rate-window error %q", errResp.Error)
	}
	if got := srv.Snapshot(); !reflect.DeepEqual(got, &prevented) {
		t.Error("a rejected reload changed the served snapshot")
	}
}

// TestServePrevention serves a snapshot with gateway + response policy:
// the injection must be blocked mid-stream and the drop counted.
func TestServePrevention(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	armed := *snap
	armed.Gateway = &store.GatewayPolicy{}
	armed.Response = &store.ResponsePolicy{Rank: 10, BlockTop: 1, Quarantine: 30 * time.Second}

	_, url := startServer(t, server.Config{Snapshot: &armed})
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, attacked), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	var down struct {
		Total engine.Stats `json:"total"`
	}
	if code := post(t, url+"/admin/shutdown", nil, &down); code != http.StatusOK {
		t.Fatalf("shutdown status %d", code)
	}
	if down.Total.DroppedInjected == 0 {
		t.Errorf("prevention stopped nothing: %+v", down.Total)
	}

	// The served prevention loop must match the engine run directly.
	gw, err := gateway.New(armed.GatewayConfig())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := response.New(gw, armed.ResponseConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewTrained(engine.Config{Core: armed.Core, Gateway: gw, Responder: resp}, armed.Template)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := eng.Detect(context.Background(), attacked)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != down.Total.Dropped || st.DroppedInjected != down.Total.DroppedInjected {
		t.Errorf("served drops %d/%d, engine reference %d/%d",
			down.Total.Dropped, down.Total.DroppedInjected, st.Dropped, st.DroppedInjected)
	}
}

// TestServeIngestErrors covers the ingest failure paths: bad format,
// malformed body (earlier records stay ingested), and 503 after drain.
func TestServeIngestErrors(t *testing.T) {
	snap, clean, _ := loadFixture(t)
	_, url := startServer(t, server.Config{Snapshot: snap})

	if code := post(t, url+"/ingest/ms-can?format=tsv", nil, nil); code != http.StatusBadRequest {
		t.Errorf("unknown format status %d, want 400", code)
	}

	body := append(encodeCSV(t, clean[:10]), []byte("this,is,not,a,csv,row,either\n")...)
	var ing struct {
		Records int    `json:"records"`
		Error   string `json:"error"`
	}
	if code := post(t, url+"/ingest/ms-can?format=csv", body, &ing); code != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", code)
	}
	if ing.Records != 10 || ing.Error == "" {
		t.Errorf("malformed body response %+v, want 10 records and an error", ing)
	}

	if code := post(t, url+"/admin/shutdown", nil, nil); code != http.StatusOK {
		t.Fatalf("shutdown failed")
	}
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, clean[:5]), nil); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain ingest status %d, want 503", code)
	}
	var health struct {
		Status string `json:"status"`
	}
	if code := get(t, url+"/healthz", &health); code != http.StatusOK || health.Status != "draining" {
		t.Errorf("healthz after drain: %d %q", code, health.Status)
	}
}

// TestServeStatsAndAlertsEndpoints exercises the read endpoints while
// the pipeline is live.
func TestServeStatsAndAlertsEndpoints(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	s, url := startServer(t, server.Config{Snapshot: snap, MaxAlerts: 2})
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, attacked), nil); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	var st struct {
		AlertsTotal uint64                  `json:"alerts_total"`
		Total       engine.Stats            `json:"total"`
		Buses       map[string]engine.Stats `json:"buses"`
	}
	if code := get(t, url+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.Total.Frames != uint64(len(attacked)) || st.AlertsTotal == 0 {
		t.Errorf("stats %+v", st)
	}

	var al struct {
		Total  uint64               `json:"total"`
		Alerts []server.TaggedAlert `json:"alerts"`
	}
	if code := get(t, url+"/alerts?n=1", &al); code != http.StatusOK {
		t.Fatalf("alerts status %d", code)
	}
	if len(al.Alerts) != 1 || al.Total != st.AlertsTotal {
		t.Errorf("alerts response: %d returned, total %d (stats total %d)", len(al.Alerts), al.Total, st.AlertsTotal)
	}
	// MaxAlerts=2 bounds the ring but not the running total.
	if got := s.Alerts(0); len(got) > 2 {
		t.Errorf("ring holds %d alerts, cap is 2", len(got))
	}
	if code := get(t, url+"/alerts?n=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bad n status %d, want 400", code)
	}
}

// TestServerLifecycleErrors pins the lifecycle edges: double start,
// drain before start, ingest before start.
func TestServerLifecycleErrors(t *testing.T) {
	snap, _, _ := loadFixture(t)
	s, err := server.New(server.Config{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err == nil {
		t.Error("Drain before Start succeeded")
	}
	if _, err := s.Ingest("ms-can", trace.FormatCSV, bytes.NewReader(nil)); err == nil {
		t.Error("Ingest before Start succeeded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(ctx); err == nil {
		t.Error("double Start succeeded")
	}
	if err := s.Drain(); err != nil {
		t.Errorf("Drain: %v", err)
	}

	if _, err := server.New(server.Config{}); err == nil {
		t.Error("New without snapshot succeeded")
	}
	bad := *snap
	bad.Template.Width = 5
	if _, err := server.New(server.Config{Snapshot: &bad}); err == nil {
		t.Error("New with a broken snapshot succeeded")
	}
}

// TestServeCancelUnwinds checks that canceling the run context stops
// the pipeline without a drain and surfaces the cancellation.
func TestServeCancelUnwinds(t *testing.T) {
	snap, clean, _ := loadFixture(t)
	s, err := server.New(server.Config{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest("ms-can", trace.FormatCSV, bytes.NewReader(encodeCSV(t, clean[:100]))); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline did not unwind after cancel")
	}
	if err := s.Drain(); err == nil {
		t.Error("Drain after cancel should surface the cancellation")
	}
}

func ExampleServer() {
	fmt.Println("see examples/serving for the end-to-end walkthrough")
	// Output: see examples/serving for the end-to-end walkthrough
}

// --- Online adaptation, checkpointing, admin auth --------------------

// gatewaySnapshot derives a snapshot that arms the gateway (whitelist
// off, no budgets yet): serving it with adaptation enabled learns rate
// budgets from live clean traffic.
func gatewaySnapshot(t *testing.T) *store.Snapshot {
	snap, _, _ := loadFixture(t)
	s := *snap
	s.Gateway = &store.GatewayPolicy{RateWindow: s.Core.Window}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return &s
}

// testStats mirrors the /stats payload for tests.
type testStats struct {
	AlertsTotal uint64                  `json:"alerts_total"`
	Total       engine.Stats            `json:"total"`
	Buses       map[string]engine.Stats `json:"buses"`
	Adapt       map[string]adapt.Status `json:"adapt"`
}

// authReq issues a request with an optional bearer token and decodes
// the JSON response.
func authReq(t *testing.T, method, url, token string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

// TestServeAdaptLifecycle drives the full online-adaptation story over
// HTTP: serve with adaptation and checkpointing on, ingest clean
// traffic, watch budgets get promoted, exercise the admin controls,
// checkpoint, and restart a second server from the version-2
// checkpoint with the learned budgets intact.
func TestServeAdaptLifecycle(t *testing.T) {
	snap := gatewaySnapshot(t)
	_, clean, _ := loadFixture(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "model.snap")
	const token = "s3cret"
	srv, url := startServer(t, server.Config{
		Snapshot:       snap,
		Adapt:          &server.AdaptOptions{Every: 2, MinWindows: 2, RateSlack: 1.5},
		CheckpointPath: base,
		AdminToken:     token,
	})
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, clean), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}

	// Ingest returns once the records are in the buffered feed; the
	// engines may still be scoring, so poll for the promotion.
	var ast adapt.Status
	deadline := time.Now().Add(10 * time.Second)
	for {
		var stats testStats
		if code := get(t, url+"/stats", &stats); code != http.StatusOK {
			t.Fatalf("stats status %d", code)
		}
		var ok bool
		if ast, ok = stats.Adapt["ms-can"]; ok && ast.Promotions > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no promotion after clean ingest: %+v", stats.Adapt)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ast.Clean == 0 || ast.Windows < ast.Clean {
		t.Errorf("implausible window counters: %+v", ast)
	}

	var adaptStatus struct {
		Enabled bool                    `json:"enabled"`
		Buses   map[string]adapt.Status `json:"buses"`
	}
	if code := authReq(t, "GET", url+"/admin/adapt", token, nil, &adaptStatus); code != http.StatusOK {
		t.Fatalf("admin adapt status %d", code)
	}
	// Promotions only grow between the two reads (the pipeline may still
	// be scoring).
	if !adaptStatus.Enabled || adaptStatus.Buses["ms-can"].Promotions < ast.Promotions {
		t.Errorf("admin adapt view disagrees with /stats: %+v", adaptStatus)
	}

	// Controls: pause sticks, bogus action is rejected, resume + force
	// re-arm.
	if code := authReq(t, "POST", url+"/admin/adapt?action=pause", token, nil, nil); code != http.StatusOK {
		t.Fatalf("pause status %d", code)
	}
	if code := authReq(t, "POST", url+"/admin/adapt?action=bogus", token, nil, nil); code != http.StatusBadRequest {
		t.Fatalf("bogus action status %d", code)
	}
	if code := authReq(t, "POST", url+"/admin/adapt?action=resume&channel=nope", token, nil, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown channel status %d", code)
	}
	if code := authReq(t, "POST", url+"/admin/adapt?action=resume&channel=ms-can", token, nil, nil); code != http.StatusOK {
		t.Fatalf("resume status %d", code)
	}
	if code := authReq(t, "POST", url+"/admin/adapt?action=force", token, nil, nil); code != http.StatusOK {
		t.Fatalf("force status %d", code)
	}

	// Checkpoint now and restart from the file.
	var ck struct {
		Files map[string]string `json:"files"`
	}
	if code := authReq(t, "POST", url+"/admin/checkpoint", token, nil, &ck); code != http.StatusOK {
		t.Fatalf("checkpoint status %d", code)
	}
	path, ok := ck.Files["ms-can"]
	if !ok || path != server.CheckpointFile(base, "ms-can") {
		t.Fatalf("checkpoint files = %v", ck.Files)
	}
	loaded, err := store.Load(path)
	if err != nil {
		t.Fatalf("checkpoint does not load: %v", err)
	}
	if loaded.Adapt == nil || loaded.Adapt.Promotions == 0 {
		t.Fatalf("checkpoint lost the adaptation metadata: %+v", loaded.Adapt)
	}
	if loaded.Gateway == nil || len(loaded.Gateway.Budgets) == 0 {
		t.Fatal("checkpoint lost the learned budgets")
	}
	if loaded.Core != snap.Core {
		t.Fatal("checkpoint changed the core config")
	}

	// A reload rebases the adapter: the learning state starts over from
	// the reloaded model.
	if code := authReq(t, "POST", url+"/admin/reload", token, encodeSnapshot(t, loaded), nil); code != http.StatusOK {
		t.Fatalf("reload of the checkpoint status %d", code)
	}
	if code := authReq(t, "GET", url+"/admin/adapt", token, nil, &adaptStatus); code != http.StatusOK {
		t.Fatalf("admin adapt status %d", code)
	}
	if st := adaptStatus.Buses["ms-can"]; st.RingFill != 0 || st.CleanSince != 0 {
		t.Errorf("reload did not rebase the adapter: %+v", st)
	}
	_ = srv

	// Restart: a fresh server built from the checkpoint serves the
	// learned budgets without adaptation.
	srv2, url2 := startServer(t, server.Config{Snapshot: loaded})
	if code := post(t, url2+"/ingest/ms-can?format=csv", encodeCSV(t, clean), nil); code != http.StatusOK {
		t.Fatalf("restart ingest status %d", code)
	}
	if err := srv2.Drain(); err != nil {
		t.Fatal(err)
	}
	total, _ := srv2.Stats()
	if total.Frames != uint64(len(clean)) {
		t.Errorf("restart served %d frames, want %d", total.Frames, len(clean))
	}
}

// TestIngestSteadyStateAllocs extends the engine's allocation guard to
// the serve path: a warm server ingesting binary or candump bodies —
// decode, feed slabs, demux and the engine lanes together — and a
// fleet with the gateway and responder armed stay below 0.25
// allocations per frame. Each body is the capture shifted past the
// previous one, so stream time keeps advancing.
func TestIngestSteadyStateAllocs(t *testing.T) {
	snap, clean, attacked := loadFixture(t)
	// The prevention leg serves a fleet with the gateway's whitelist and
	// learned rate budgets and a responder, over the attacked capture,
	// so classify, block and quarantine expiry all run.
	learner, err := gateway.NewRateLearner(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range clean.Windows(snap.Core.Window, false) {
		learner.ObserveWindow(w)
	}
	budgets, err := learner.Budgets()
	if err != nil {
		t.Fatal(err)
	}
	armed := *snap
	armed.Gateway = &store.GatewayPolicy{Legal: snap.Pool, RateWindow: snap.Core.Window, RateSlack: 2, Budgets: budgets}
	armed.Response = &store.ResponsePolicy{Rank: 10, BlockTop: 1, Quarantine: time.Second}
	for _, leg := range []struct {
		name    string
		cfg     server.Config
		format  trace.Format
		channel string
		records trace.Trace
	}{
		{"binary", server.Config{Snapshot: snap}, trace.FormatBinary, "", clean},
		{"candump", server.Config{Snapshot: snap}, trace.FormatCandump, "", clean},
		{"fleet-prevention", server.Config{Snapshot: &armed, Fleet: &server.FleetOptions{Engines: 2}},
			trace.FormatCandump, "veh-01", attacked},
	} {
		t.Run(leg.name, func(t *testing.T) {
			s, _ := startServer(t, leg.cfg)
			const runs = 5
			span := leg.records[len(leg.records)-1].Time + time.Second
			// One body to build the bus engine, one for AllocsPerRun's
			// warm-up call, one per measured run.
			bodies := make([][]byte, runs+2)
			for i := range bodies {
				shifted := append(trace.Trace(nil), leg.records...)
				for j := range shifted {
					shifted[j].Time += time.Duration(i) * span
				}
				var buf bytes.Buffer
				if err := trace.Write(&buf, leg.format, shifted); err != nil {
					t.Fatal(err)
				}
				bodies[i] = buf.Bytes()
			}
			next := 0
			ingest := func() {
				n, err := s.Ingest(leg.channel, leg.format, bytes.NewReader(bodies[next]))
				next++
				if err != nil || n != len(leg.records) {
					t.Fatalf("ingest accepted %d of %d records: %v", n, len(leg.records), err)
				}
			}
			ingest()
			if perFrame := testing.AllocsPerRun(runs, ingest) / float64(len(leg.records)); perFrame >= 0.25 {
				t.Errorf("Ingest allocates %.3f allocs/frame over %d-frame %v bodies; the serve path must stay below 0.25",
					perFrame, len(leg.records), leg.format)
			}
		})
	}
}

// TestServeAdaptDisabled pins the adaptation surface on a plain server:
// the endpoints answer 409, /stats carries no adapt section, and
// checkpointing without adaptation is rejected at New.
func TestServeAdaptDisabled(t *testing.T) {
	snap, _, _ := loadFixture(t)
	_, url := startServer(t, server.Config{Snapshot: snap})
	if code := authReq(t, "GET", url+"/admin/adapt", "", nil, nil); code != http.StatusConflict {
		t.Errorf("adapt status on plain server: %d, want 409", code)
	}
	if code := authReq(t, "POST", url+"/admin/adapt?action=pause", "", nil, nil); code != http.StatusConflict {
		t.Errorf("adapt control on plain server: %d, want 409", code)
	}
	if code := authReq(t, "POST", url+"/admin/checkpoint", "", nil, nil); code != http.StatusConflict {
		t.Errorf("checkpoint on plain server: %d, want 409", code)
	}
	var stats testStats
	get(t, url+"/stats", &stats)
	if stats.Adapt != nil {
		t.Errorf("plain server reports adaptation: %+v", stats.Adapt)
	}
	if _, err := server.New(server.Config{Snapshot: snap, CheckpointPath: "x.snap"}); err == nil {
		t.Error("checkpointing without adaptation accepted")
	}
}

// TestServeAdminAuth locks the admin surface behind the bearer token:
// no token and wrong token answer 401 without side effects, the right
// token works, and the read/ingest surface stays open.
func TestServeAdminAuth(t *testing.T) {
	snap, clean, _ := loadFixture(t)
	const token = "hunter2"
	srv, url := startServer(t, server.Config{Snapshot: snap, AdminToken: token})
	if code := authReq(t, "POST", url+"/admin/shutdown", "", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("shutdown without token: %d, want 401", code)
	}
	if code := authReq(t, "POST", url+"/admin/shutdown", "wrong", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("shutdown with wrong token: %d, want 401", code)
	}
	if code := authReq(t, "POST", url+"/admin/reload", "", encodeSnapshot(t, snap), nil); code != http.StatusUnauthorized {
		t.Fatalf("reload without token: %d, want 401", code)
	}
	// The 401s must not have drained anything: ingest and reads still work.
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, clean), nil); code != http.StatusOK {
		t.Fatalf("open ingest status %d", code)
	}
	if code := get(t, url+"/stats", nil); code != http.StatusOK {
		t.Fatalf("open stats status %d", code)
	}
	var resp shutdownResponse2
	if code := authReq(t, "POST", url+"/admin/shutdown", token, nil, &resp); code != http.StatusOK {
		t.Fatalf("authorized shutdown status %d", code)
	}
	if resp.Total.Frames != uint64(len(clean)) {
		t.Errorf("drained %d frames, want %d", resp.Total.Frames, len(clean))
	}
	_ = srv
}

// shutdownResponse2 mirrors the handler's shutdown payload for tests.
type shutdownResponse2 struct {
	AlertsTotal uint64                  `json:"alerts_total"`
	Total       engine.Stats            `json:"total"`
	Buses       map[string]engine.Stats `json:"buses"`
}

func TestCheckpointFile(t *testing.T) {
	cases := []struct{ base, channel, want string }{
		{"model.snap", "ms-can", "model.ms-can.snap"},
		{"/var/lib/canids/model.snap", "can0", "/var/lib/canids/model.can0.snap"},
		{"model.snap", "", "model._.snap"},
		{"model.snap", "weird/../bus", "model.weird_2f_2e_2e_2fbus.snap"},
		{"noext", "can0", "noext.can0"},
	}
	for _, tc := range cases {
		if got := server.CheckpointFile(tc.base, tc.channel); got != tc.want {
			t.Errorf("CheckpointFile(%q, %q) = %q, want %q", tc.base, tc.channel, got, tc.want)
		}
	}
	// The mapping must be injective: channels differing only in escaped
	// bytes (or colliding with the escape character itself) must land in
	// distinct files, or two buses would overwrite each other's models.
	seen := make(map[string]string)
	for _, ch := range []string{"can.0", "can_0", "can_2e0", "bus", "_", "", "a/b", "a_2fb"} {
		got := server.CheckpointFile("m.snap", ch)
		if prev, dup := seen[got]; dup {
			t.Errorf("channels %q and %q collide on %q", prev, ch, got)
		}
		seen[got] = ch
	}
}

// TestServeAdaptFleetPauseCoversNewBuses pins the fix for a pause
// raced by traffic: a fleet-wide pause issued before a bus's first
// record must leave that bus's adapter paused when it appears.
func TestServeAdaptFleetPauseCoversNewBuses(t *testing.T) {
	snap := gatewaySnapshot(t)
	_, clean, _ := loadFixture(t)
	_, url := startServer(t, server.Config{
		Snapshot: snap,
		Adapt:    &server.AdaptOptions{Every: 1, MinWindows: 1, RateSlack: 2},
	})
	// Pause with zero buses live.
	if code := authReq(t, "POST", url+"/admin/adapt?action=pause", "", nil, nil); code != http.StatusOK {
		t.Fatalf("fleet pause status %d", code)
	}
	if code := post(t, url+"/ingest/late-bus?format=csv", encodeCSV(t, clean), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	var st struct {
		Buses map[string]adapt.Status `json:"buses"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		authReq(t, "GET", url+"/admin/adapt", "", nil, &st)
		if b, ok := st.Buses["late-bus"]; ok && b.Windows > 0 {
			if !b.Paused {
				t.Fatalf("bus born after the fleet pause is not paused: %+v", b)
			}
			if b.Promotions != 0 {
				t.Fatalf("paused new bus promoted: %+v", b)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late-bus never appeared: %+v", st.Buses)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A fleet resume lifts the default again for the next bus.
	if code := authReq(t, "POST", url+"/admin/adapt?action=resume", "", nil, nil); code != http.StatusOK {
		t.Fatalf("fleet resume status %d", code)
	}
	if code := post(t, url+"/ingest/later-bus?format=csv", encodeCSV(t, clean), nil); code != http.StatusOK {
		t.Fatalf("second ingest status %d", code)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		authReq(t, "GET", url+"/admin/adapt", "", nil, &st)
		if b, ok := st.Buses["later-bus"]; ok {
			if b.Paused {
				t.Fatalf("bus born after the fleet resume is paused: %+v", b)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("later-bus never appeared: %+v", st.Buses)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeReloadAcceptsOwnCheckpoint pins that a checkpoint the
// daemon produced can always be hot-reloaded into the daemon that
// produced it — including the response-only case, where the checkpoint
// gains explicit gateway policy (learned budgets) that the live
// engines materialized implicitly.
func TestServeReloadAcceptsOwnCheckpoint(t *testing.T) {
	snap, clean, _ := loadFixture(t)
	respOnly := *snap
	respOnly.Response = &store.ResponsePolicy{Rank: 10, BlockTop: 1, Quarantine: 30 * time.Second}
	if err := respOnly.Validate(); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "model.snap")
	_, url := startServer(t, server.Config{
		Snapshot:       &respOnly,
		Adapt:          &server.AdaptOptions{Every: 2, MinWindows: 2, RateSlack: 2},
		CheckpointPath: base,
	})
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, clean), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	var ck struct {
		Files map[string]string `json:"files"`
	}
	for {
		if code := authReq(t, "POST", url+"/admin/checkpoint", "", nil, &ck); code != http.StatusOK {
			t.Fatalf("checkpoint status %d", code)
		}
		loaded, err := store.Load(ck.Files["ms-can"])
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Gateway != nil && len(loaded.Gateway.Budgets) > 0 {
			// The response-only model grew explicit budget policy; the
			// daemon must still accept its own artifact.
			if code := authReq(t, "POST", url+"/admin/reload", "", encodeSnapshot(t, loaded), nil); code != http.StatusOK {
				t.Fatalf("daemon rejected its own checkpoint: status %d", code)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no budgets promoted into the checkpoint: %+v", loaded.Gateway)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
