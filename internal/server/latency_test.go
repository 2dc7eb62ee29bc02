package server_test

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"canids/internal/server"
)

// histFamilies are the latency-histogram families /metrics exposes.
var histFamilies = []string{
	"canids_ingest_request_seconds",
	"canids_ingest_decode_seconds",
	"canids_pipeline_latency_seconds",
	"canids_detect_latency_seconds",
	"canids_checkpoint_save_seconds",
}

// histLines extracts the histogram sample lines (buckets, sums and
// counts) from an exposition body, preserving order.
func histLines(body string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, fam := range histFamilies {
			if strings.HasPrefix(line, fam+"_bucket{") ||
				strings.HasPrefix(line, fam+"_sum") ||
				strings.HasPrefix(line, fam+"_count") {
				out = append(out, line)
				break
			}
		}
	}
	return out
}

// checkHistogramWellFormed walks one exposition body and verifies every
// histogram series in it: cumulative buckets never decrease, the +Inf
// bucket equals the matching _count, and _count/_sum exist for every
// bucket group. Returns the _count value per series key (family plus
// the non-le labels).
func checkHistogramWellFormed(t *testing.T, body string) map[string]float64 {
	t.Helper()
	type group struct {
		last   float64 // running cumulative bucket value
		inf    float64
		sawInf bool
	}
	groups := make(map[string]*group)
	counts := make(map[string]float64)
	for _, line := range histLines(body) {
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable histogram line %q: %v", line, err)
		}
		series := line[:i]
		switch {
		case strings.Contains(series, "_bucket{"):
			// The key is the series minus its trailing le label; le is
			// always rendered last.
			j := strings.LastIndex(series, `le="`)
			if j < 0 {
				t.Fatalf("bucket line without le label: %q", line)
			}
			key := strings.TrimSuffix(series[:j], ",")
			if strings.HasSuffix(key, "{") {
				key = strings.TrimSuffix(key, "{") // unlabeled: only le was inside
			} else {
				key += "}" // labeled: restore the brace le carried
			}
			g := groups[key]
			if g == nil {
				g = &group{}
				groups[key] = g
			}
			if strings.Contains(series[j:], `le="+Inf"`) {
				g.inf, g.sawInf = v, true
			} else {
				if v < g.last {
					t.Errorf("cumulative bucket decreased in %q: %v after %v", series, v, g.last)
				}
				g.last = v
			}
		case strings.Contains(series, "_count"):
			counts[series] = v
		}
	}
	// Reconcile +Inf against _count per group.
	for key, g := range groups {
		if !g.sawInf {
			t.Errorf("histogram group %q has no +Inf bucket", key)
			continue
		}
		if g.last > g.inf {
			t.Errorf("histogram group %q: last finite bucket %v exceeds +Inf %v", key, g.last, g.inf)
		}
		countKey := strings.Replace(key, "_bucket", "_count", 1)
		c, ok := counts[countKey]
		if !ok {
			t.Errorf("histogram group %q has no matching %s", key, countKey)
			continue
		}
		if g.inf != c {
			t.Errorf("histogram group %q: +Inf bucket %v != _count %v", key, g.inf, c)
		}
	}
	return counts
}

// TestMetricsLatencyReconcile drives a classic (per-bus) run to
// quiescence and reconciles the latency histograms against the
// counters they ride alongside: one pipeline observation per closed
// window, one detection observation per alert, one ingest observation
// per HTTP ingest call, decode observations per wire format.
func TestMetricsLatencyReconcile(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	s, url := startServer(t, server.Config{Snapshot: snap, MaxAlerts: 1 << 20})
	csv := encodeCSV(t, attacked)
	if code := post(t, url+"/ingest/can-a?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("can-a ingest status %d", code)
	}
	if code := post(t, url+"/ingest/can-b?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("can-b ingest status %d", code)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if s.AlertsTotal() == 0 {
		t.Fatal("fixture produced no alerts; nothing to reconcile")
	}

	body, _ := getText(t, url+"/metrics")
	m := parseMetrics(t, body)
	counts := checkHistogramWellFormed(t, body)

	if got := counts["canids_ingest_request_seconds_count"]; got != 2 {
		t.Errorf("ingest request count = %v, want 2 (one per ingest call)", got)
	}
	if got := counts[`canids_ingest_decode_seconds_count{format="csv"}`]; got != 2 {
		t.Errorf("csv decode count = %v, want 2", got)
	}
	for _, f := range []string{"candump", "binary"} {
		if got := counts[`canids_ingest_decode_seconds_count{format="`+f+`"}`]; got != 0 {
			t.Errorf("%s decode count = %v, want 0 (format never used)", f, got)
		}
	}
	for _, bus := range []string{"can-a", "can-b"} {
		windows := m[`canids_bus_windows_total{bus="`+bus+`"}`]
		alerts := m[`canids_bus_alerts_total{bus="`+bus+`"}`]
		if windows == 0 || alerts == 0 {
			t.Fatalf("%s: windows=%v alerts=%v; fixture should produce both", bus, windows, alerts)
		}
		if got := counts[`canids_pipeline_latency_seconds_count{bus="`+bus+`"}`]; got != windows {
			t.Errorf("%s: pipeline latency count %v != windows closed %v", bus, got, windows)
		}
		if got := counts[`canids_detect_latency_seconds_count{bus="`+bus+`"}`]; got != alerts {
			t.Errorf("%s: detect latency count %v != alerts emitted %v", bus, got, alerts)
		}
	}
	if got := m["canids_journal_errors_total"]; got != 0 {
		t.Errorf("canids_journal_errors_total = %v on a run without a journal", got)
	}
	foundBuild := false
	for k := range m {
		if strings.HasPrefix(k, "canids_build_info{") {
			if strings.Contains(k, `go_version="go`) && m[k] == 1 {
				foundBuild = true
			}
		}
	}
	if !foundBuild {
		t.Error("canids_build_info with a go_version label missing from /metrics")
	}
	for _, g := range []string{"canids_goroutines", "canids_heap_alloc_bytes", "canids_gc_cycles_total"} {
		if _, ok := m[g]; !ok {
			t.Errorf("runtime gauge %s missing from /metrics", g)
		}
	}
}

// TestMetricsLatencyReconcileFleet repeats the reconciliation in fleet
// mode: vehicles multiplexed over shared engines still get per-vehicle
// detection-latency series whose counts match their alert counters.
// (Engine pipeline timing rides per-bus engine builds, which fleet
// lanes bypass; the tap-based detection latency covers fleet mode.)
func TestMetricsLatencyReconcileFleet(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	const vehicles = 4
	mixed := spread(attacked, vehicles)
	s, url := startServer(t, server.Config{
		Snapshot: snap, MaxAlerts: 1 << 20,
		Fleet: &server.FleetOptions{Engines: 2},
	})
	if code := post(t, url+"/ingest?format=csv", encodeCSV(t, mixed), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	body, _ := getText(t, url+"/metrics")
	m := parseMetrics(t, body)
	counts := checkHistogramWellFormed(t, body)

	if got := counts["canids_ingest_request_seconds_count"]; got != 1 {
		t.Errorf("ingest request count = %v, want 1", got)
	}
	var alertSum, detectSum float64
	for i := 0; i < vehicles; i++ {
		bus := "veh-" + string(rune('a'+i))
		alerts := m[`canids_bus_alerts_total{bus="`+bus+`"}`]
		got := counts[`canids_detect_latency_seconds_count{bus="`+bus+`"}`]
		if got != alerts {
			t.Errorf("%s: detect latency count %v != alerts %v", bus, got, alerts)
		}
		alertSum += alerts
		detectSum += got
	}
	if alertSum == 0 {
		t.Fatal("fleet run produced no alerts; nothing was reconciled")
	}
	if detectSum != m["canids_alerts_total"] {
		t.Errorf("detect latency observations %v != canids_alerts_total %v", detectSum, m["canids_alerts_total"])
	}
}

// TestMetricsHistogramByteStable scrapes /metrics twice with no
// intervening traffic and requires the histogram sample lines to be
// byte-identical — the exposition must not depend on map order or
// transient formatting. (Uptime and runtime gauges legitimately move
// between scrapes; the histogram state does not.)
func TestMetricsHistogramByteStable(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	s, url := startServer(t, server.Config{Snapshot: snap, MaxAlerts: 1 << 20})
	if code := post(t, url+"/ingest/bus-1?format=csv", encodeCSV(t, attacked), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	first, _ := getText(t, url+"/metrics")
	second, _ := getText(t, url+"/metrics")
	a, b := histLines(first), histLines(second)
	if len(a) == 0 {
		t.Fatal("no histogram lines in /metrics")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("histogram exposition differs between two scrapes of equal state")
	}
}

// TestPprofAdminAuth locks the profiling surface behind the admin
// bearer token: authorized requests profile, unauthorized ones get 401
// without reaching the pprof handlers.
func TestPprofAdminAuth(t *testing.T) {
	snap, _, _ := loadFixture(t)
	const token = "prof-secret"
	_, url := startServer(t, server.Config{Snapshot: snap, AdminToken: token})

	fetch := func(path, tok string) (int, string) {
		req, err := http.NewRequest(http.MethodGet, url+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tok != "" {
			req.Header.Set("Authorization", "Bearer "+tok)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	if code, _ := fetch("/admin/pprof/goroutine?debug=1", ""); code != http.StatusUnauthorized {
		t.Errorf("unauthenticated pprof status %d, want 401", code)
	}
	if code, _ := fetch("/admin/pprof/goroutine?debug=1", "wrong"); code != http.StatusUnauthorized {
		t.Errorf("wrong-token pprof status %d, want 401", code)
	}
	code, body := fetch("/admin/pprof/goroutine?debug=1", token)
	if code != http.StatusOK {
		t.Fatalf("authorized pprof status %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("goroutine profile body looks wrong: %.80s", body)
	}
	code, body = fetch("/admin/pprof/", token)
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index status %d, body %.80s", code, body)
	}
	if code, _ := fetch("/admin/pprof/nonexistent", token); code != http.StatusNotFound {
		t.Errorf("unknown profile status %d, want 404", code)
	}
	if code, _ := fetch("/admin/diag", ""); code != http.StatusUnauthorized {
		t.Errorf("unauthenticated diag status %d, want 401", code)
	}
}

// TestDiagBundle pulls the one-shot incident bundle and checks it is a
// well-formed tar.gz holding the full observable surface.
func TestDiagBundle(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	const token = "diag-secret"
	dir := t.TempDir()
	s, url := startServer(t, server.Config{
		Snapshot: snap, MaxAlerts: 1 << 20,
		AdminToken: token, JournalDir: filepath.Join(dir, "journal"),
	})
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, attacked), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodGet, url+"/admin/diag", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diag status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Errorf("diag Content-Type %q", ct)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "canids-diag-") {
		t.Errorf("diag Content-Disposition %q", cd)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	files := make(map[string][]byte)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		files[hdr.Name] = data
	}
	for _, want := range []string{
		"stats.json", "metrics.txt", "healthz.json", "alerts.json",
		"config.json", "degraded.txt", "goroutines.txt", "buildinfo.txt",
	} {
		if _, ok := files[want]; !ok {
			t.Errorf("diag bundle missing %s (have %d files)", want, len(files))
		}
	}
	var st struct {
		AlertsTotal uint64 `json:"alerts_total"`
		Epoch       uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(files["stats.json"], &st); err != nil {
		t.Fatalf("stats.json does not parse: %v", err)
	}
	if st.AlertsTotal != s.AlertsTotal() {
		t.Errorf("bundle stats alerts %d, server says %d", st.AlertsTotal, s.AlertsTotal())
	}
	if !bytes.Contains(files["metrics.txt"], []byte("canids_detect_latency_seconds_bucket")) {
		t.Error("bundle metrics.txt is missing the latency histograms")
	}
	var cfg struct {
		AdminToken string `json:"admin_token"`
	}
	if err := json.Unmarshal(files["config.json"], &cfg); err != nil {
		t.Fatalf("config.json does not parse: %v", err)
	}
	if cfg.AdminToken != "(redacted)" {
		t.Errorf("config.json leaks the admin token: %q", cfg.AdminToken)
	}
	if !bytes.Contains(files["goroutines.txt"], []byte("goroutine")) {
		t.Error("goroutines.txt does not look like a goroutine dump")
	}
}

// TestHealthzEpoch confirms /healthz carries the serving epoch so a
// fleet rollout can be watched from the health probe alone.
func TestHealthzEpoch(t *testing.T) {
	snap, _, _ := loadFixture(t)
	_, url := startServer(t, server.Config{Snapshot: snap})
	var hz struct {
		Epoch *uint64 `json:"epoch"`
	}
	if code := get(t, url+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if hz.Epoch == nil {
		t.Fatal("healthz has no epoch field")
	}
	if *hz.Epoch != 1 {
		t.Errorf("healthz epoch %d, want 1 before any reload", *hz.Epoch)
	}
}

// TestJournalGauges checks the per-bus journal size/segment gauges and
// the error counter against a run that journals real alerts.
func TestJournalGauges(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	dir := t.TempDir()
	s, url := startServer(t, server.Config{
		Snapshot: snap, MaxAlerts: 1 << 20,
		JournalDir: filepath.Join(dir, "journal"),
	})
	if code := post(t, url+"/ingest/obd?format=csv", encodeCSV(t, attacked), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if s.AlertsTotal() == 0 {
		t.Fatal("no alerts journaled; gauges have nothing to show")
	}
	body, _ := getText(t, url+"/metrics")
	m := parseMetrics(t, body)
	if got := m["canids_journal_errors_total"]; got != 0 {
		t.Errorf("canids_journal_errors_total = %v, want 0", got)
	}
	if got := m[`canids_journal_bytes{bus="obd"}`]; got <= 8 {
		t.Errorf(`canids_journal_bytes{bus="obd"} = %v, want > header size`, got)
	}
	if got := m[`canids_journal_segments{bus="obd"}`]; got < 1 {
		t.Errorf(`canids_journal_segments{bus="obd"} = %v, want >= 1`, got)
	}
}
