package server_test

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"canids/internal/engine"
	"canids/internal/fault"
	"canids/internal/journal"
	"canids/internal/server"
)

// getText fetches a URL and returns the raw body and Content-Type —
// for the non-JSON /metrics endpoint.
func getText(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), resp.Header.Get("Content-Type")
}

// parseMetrics parses a Prometheus text exposition into a map keyed by
// the full series (name plus label set, exactly as emitted). Every
// non-comment line must parse — a malformed line fails the test.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in metrics line %q: %v", line, err)
		}
		if _, dup := out[line[:i]]; dup {
			t.Fatalf("duplicate metrics series %q", line[:i])
		}
		out[line[:i]] = v
	}
	return out
}

// metricsStats is the /stats surface the reconciliation test reads.
type metricsStats struct {
	AlertsTotal uint64                      `json:"alerts_total"`
	Buses       map[string]engine.Stats     `json:"buses"`
	Health      map[string]engine.BusHealth `json:"health"`
}

// TestMetricsReconcileAfterChaos scrapes /metrics after a fault-injected
// run (engine panic + restart on one bus) and reconciles it against
// /stats: the exposition must parse, and every counter must agree
// exactly with the JSON surface — including the drain accounting
// invariant accepted == frames + lost on both the victim and the
// steady bus.
func TestMetricsReconcileAfterChaos(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	inj := fault.New()
	inj.ArmPanic(fault.EngineFrame, "victim", 500, 1)
	_, url := startServer(t, server.Config{
		Snapshot: snap, MaxAlerts: 1 << 20,
		Fault: inj, RestartBackoff: time.Millisecond,
	})
	csv := encodeCSV(t, attacked)
	if code := post(t, url+"/ingest/steady?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("steady ingest status %d", code)
	}
	if code := post(t, url+"/ingest/victim?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("victim ingest status %d", code)
	}
	var st faultStats
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := get(t, url+"/stats", &st); code != http.StatusOK {
			t.Fatalf("stats status %d", code)
		}
		if h := st.Health["victim"]; h.Restarts >= 1 && h.State == engine.BusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never restarted: %+v", st.Health)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := post(t, url+"/admin/shutdown", nil, nil); code != http.StatusOK {
		t.Fatalf("shutdown status %d", code)
	}

	var ref metricsStats
	if code := get(t, url+"/stats", &ref); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	body, ctype := getText(t, url+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 exposition format", ctype)
	}
	m := parseMetrics(t, body)

	series := func(name, bus string) float64 {
		key := name + `{bus="` + bus + `"}`
		v, ok := m[key]
		if !ok {
			t.Fatalf("metrics missing series %s", key)
		}
		return v
	}
	var alertSum float64
	for _, bus := range []string{"steady", "victim"} {
		frames, lost := series("canids_bus_frames_total", bus), series("canids_bus_lost_total", bus)
		accepted := series("canids_bus_accepted_total", bus)
		if frames+lost != accepted {
			t.Errorf("%s: metrics accepted %v != frames %v + lost %v", bus, accepted, frames, lost)
		}
		b, h := ref.Buses[bus], ref.Health[bus]
		if frames != float64(b.Frames) || lost != float64(b.Lost) || accepted != float64(h.Accepted) {
			t.Errorf("%s: metrics %v/%v/%v disagree with /stats %d/%d/%d",
				bus, frames, lost, accepted, b.Frames, b.Lost, h.Accepted)
		}
		if got := series("canids_bus_restarts_total", bus); got != float64(h.Restarts) {
			t.Errorf("%s: metrics restarts %v, /stats says %d", bus, got, h.Restarts)
		}
		if got := series("canids_bus_windows_total", bus); got != float64(b.Windows) {
			t.Errorf("%s: metrics windows %v, /stats says %d", bus, got, b.Windows)
		}
		if got := m[`canids_bus_state{bus="`+bus+`",state="ok"}`]; got != 1 {
			t.Errorf("%s: canids_bus_state ok = %v, want 1 (health %+v)", bus, got, ref.Health[bus])
		}
		alertSum += series("canids_bus_alerts_total", bus)
	}
	if series("canids_bus_restarts_total", "victim") != 1 {
		t.Errorf("victim restarts = %v, want exactly 1", series("canids_bus_restarts_total", "victim"))
	}
	if got := m["canids_alerts_total"]; got != float64(ref.AlertsTotal) || got != alertSum {
		t.Errorf("canids_alerts_total = %v, /stats says %d, per-bus sum %v", got, ref.AlertsTotal, alertSum)
	}
	if _, ok := m["canids_uptime_seconds"]; !ok {
		t.Error("metrics missing canids_uptime_seconds")
	}
	if got := m["canids_checkpoint_retries_total"]; got != 0 {
		t.Errorf("canids_checkpoint_retries_total = %v on a run without checkpointing", got)
	}
}

// journalFiles reads every file in an alert-journal directory, keyed by
// name. Used for the byte-for-byte record-vs-replay comparison.
func journalDirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestRecordReplayDeterminism is the tentpole's closing assertion: a
// recorded run's capture, replayed through a rebuilt pipeline at the
// same configuration, reproduces the alert journal bit for bit.
func TestRecordReplayDeterminism(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	csv := encodeCSV(t, attacked)
	dir := t.TempDir()
	recorded, url := startServer(t, server.Config{
		Snapshot: snap, MaxAlerts: 1 << 20,
		RecordDir:  dir,
		JournalDir: filepath.Join(dir, "journal"),
	})
	if code := post(t, url+"/ingest/can-a?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("can-a ingest status %d", code)
	}
	if code := post(t, url+"/ingest/can-b?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("can-b ingest status %d", code)
	}
	if err := recorded.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if recorded.AlertsTotal() == 0 {
		t.Fatal("recorded run produced no alerts; nothing to verify")
	}
	if notes := recorded.DegradedNotes(); len(notes) != 0 {
		t.Fatalf("recording degraded: %v", notes)
	}

	m, err := server.LoadManifest(dir)
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if got := m.JournalDir(dir); got != filepath.Join(dir, "journal") {
		t.Errorf("manifest journal dir %q", got)
	}
	rsnap, err := m.LoadSnapshot(dir)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	replay, _ := startServer(t, server.Config{
		Snapshot: rsnap, Buffer: m.Buffer, Batch: m.Batch,
		Adapt: m.Adapt, MaxAlerts: 1 << 20,
		JournalDir: filepath.Join(dir, "replay"),
	})
	n, err := replay.ReplayCapture(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != 2*len(attacked) {
		t.Errorf("replayed %d records, capture had %d", n, 2*len(attacked))
	}
	if err := replay.Drain(); err != nil {
		t.Fatalf("replay drain: %v", err)
	}
	if got, want := replay.AlertsTotal(), recorded.AlertsTotal(); got != want {
		t.Errorf("replay produced %d alerts, recorded run had %d", got, want)
	}

	want := journalDirBytes(t, filepath.Join(dir, "journal"))
	got := journalDirBytes(t, filepath.Join(dir, "replay"))
	if len(want) == 0 {
		t.Fatal("recorded journal directory is empty")
	}
	if len(got) != len(want) {
		t.Fatalf("replay journal has %d files, recorded has %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("replay journal missing %s", name)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("replay journal %s differs from the recorded run (%d vs %d bytes)",
				name, len(g), len(w))
		}
	}

	// The journals are well-formed, not just equal: every entry reads
	// back and the per-bus counts cover the recorded alert total.
	var entries int
	for name := range want {
		es, torn, err := journal.Read(filepath.Join(dir, "journal", name))
		if err != nil || torn {
			t.Fatalf("journal %s unreadable (torn=%v): %v", name, torn, err)
		}
		entries += len(es)
	}
	if entries != int(recorded.AlertsTotal()) {
		t.Errorf("journals hold %d entries, recorded run emitted %d alerts",
			entries, recorded.AlertsTotal())
	}
}
