package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"canids/internal/attack"
	"canids/internal/bus"
	"canids/internal/can"
	"canids/internal/sim"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

// makeCapture simulates traffic and writes it as CSV, returning the path.
func makeCapture(t *testing.T, dir, name string, scen vehicle.Scenario, seed int64,
	d time.Duration, atk *attack.Config) string {

	t.Helper()
	sched := sim.NewScheduler()
	b, err := bus.New(sched, bus.Config{BitRate: bus.DefaultMSCANBitRate, Channel: "ms-can"})
	if err != nil {
		t.Fatal(err)
	}
	var log trace.Trace
	b.Tap(func(r trace.Record) { log = append(log, r) })
	profile := vehicle.NewFusionProfile(1)
	profile.Attach(sched, b, vehicle.Options{Scenario: scen, Seed: seed})
	if atk != nil {
		if _, err := attack.Launch(sched, b, nil, *atk); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.RunUntil(d); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteCSV(f, log); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTrainDetectPipeline(t *testing.T) {
	dir := t.TempDir()
	clean1 := makeCapture(t, dir, "clean1.csv", vehicle.Idle, 5, 8*time.Second, nil)
	clean2 := makeCapture(t, dir, "clean2.csv", vehicle.Audio, 6, 8*time.Second, nil)
	tmpl := filepath.Join(dir, "template.json")

	var out bytes.Buffer
	if err := run([]string{"-train", "-o", tmpl, clean1, clean2}, &out); err != nil {
		t.Fatalf("train: %v", err)
	}
	if !strings.Contains(out.String(), "trained template") {
		t.Errorf("train output: %q", out.String())
	}
	if _, err := os.Stat(tmpl); err != nil {
		t.Fatalf("template not written: %v", err)
	}

	attacked := makeCapture(t, dir, "attacked.csv", vehicle.Idle, 7, 10*time.Second, &attack.Config{
		Scenario:  attack.Single,
		IDs:       []can.ID{0x0B5},
		Frequency: 100,
		Start:     2 * time.Second,
		Seed:      9,
	})
	out.Reset()
	if err := run([]string{"-detect", "-template", tmpl, "-alpha", "4", attacked}, &out); err != nil {
		t.Fatalf("detect: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "ALERT") {
		t.Fatalf("no alerts in output:\n%s", text)
	}
	if !strings.Contains(text, "suspected IDs: 0B5") {
		t.Errorf("injected ID not top suspect:\n%s", text)
	}
	if !strings.Contains(text, "detection rate") {
		t.Errorf("ground truth scoring missing:\n%s", text)
	}
}

func TestDetectCleanNoAlerts(t *testing.T) {
	dir := t.TempDir()
	clean := makeCapture(t, dir, "clean.csv", vehicle.Idle, 5, 8*time.Second, nil)
	tmpl := filepath.Join(dir, "template.json")
	if err := run([]string{"-train", "-o", tmpl, clean}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	other := makeCapture(t, dir, "other.csv", vehicle.Idle, 11, 6*time.Second, nil)
	var out bytes.Buffer
	if err := run([]string{"-detect", "-template", tmpl, other}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "ALERT") {
		t.Errorf("clean capture raised alerts:\n%s", out.String())
	}
}

func TestRunValidation(t *testing.T) {
	cases := [][]string{
		{},                             // neither mode
		{"-train", "-detect", "x.csv"}, // both modes
		{"-train"},                     // no files
		{"-detect"},                    // no files
		{"-train", "/nonexistent.csv"}, // missing input
		{"-detect", "-template", "/nonexistent.json", "x.csv"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestReadLogFormats(t *testing.T) {
	dir := t.TempDir()
	tr := trace.Trace{{Time: time.Second, Frame: can.MustFrame(0x123, []byte{1}), Channel: "c"}}

	csvPath := filepath.Join(dir, "a.csv")
	f, _ := os.Create(csvPath)
	if err := trace.WriteCSV(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := readLog(csvPath)
	if err != nil || len(got) != 1 {
		t.Errorf("readLog csv: %v %d", err, len(got))
	}

	dumpPath := filepath.Join(dir, "a.log")
	f, _ = os.Create(dumpPath)
	if err := trace.WriteCandump(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err = readLog(dumpPath)
	if err != nil || len(got) != 1 {
		t.Errorf("readLog candump: %v %d", err, len(got))
	}

	binPath := filepath.Join(dir, "a.bin")
	f, _ = os.Create(binPath)
	if err := trace.WriteBinary(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err = readLog(binPath)
	if err != nil || len(got) != 1 {
		t.Errorf("readLog binary: %v %d", err, len(got))
	}
}

func TestListScenarios(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list-scenarios"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fusion/idle/SI-100", "fusion-b/cruise/clean", "FI @ 500 Hz"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("catalogue missing %q:\n%s", want, out.String())
		}
	}
}

func TestWatchScenario(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-watch", "-scenario", "fusion/idle/SI-100",
		"-alpha", "4", "-metrics", "0"}, &out)
	if err != nil {
		t.Fatalf("watch: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"watching fusion/idle/SI-100", "ALERT", "suspected IDs:", "done:", "detection rate"} {
		if !strings.Contains(text, want) {
			t.Errorf("watch output missing %q:\n%s", want, text)
		}
	}
}

func TestWatchScenarioWithBaselines(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-watch", "-scenario", "fusion/idle/FI-500",
		"-alpha", "4", "-baselines", "-duration", "6s", "-metrics", "0"}, &out)
	if err != nil {
		t.Fatalf("watch: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "[muter-msg-entropy]") {
		t.Errorf("flooding run shows no baseline alerts:\n%s", text)
	}
	if !strings.Contains(text, "done:") {
		t.Errorf("no final summary:\n%s", text)
	}
}

func TestWatchFiles(t *testing.T) {
	dir := t.TempDir()
	clean := makeCapture(t, dir, "clean.csv", vehicle.Idle, 5, 8*time.Second, nil)
	tmpl := filepath.Join(dir, "template.json")
	if err := run([]string{"-train", "-o", tmpl, clean}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	attacked := makeCapture(t, dir, "attacked.csv", vehicle.Idle, 7, 10*time.Second, &attack.Config{
		Scenario:  attack.Single,
		IDs:       []can.ID{0x0B5},
		Frequency: 100,
		Start:     2 * time.Second,
		Seed:      9,
	})
	var out bytes.Buffer
	if err := run([]string{"-watch", "-template", tmpl, "-alpha", "4",
		"-metrics", "0", attacked}, &out); err != nil {
		t.Fatalf("watch files: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"== " + attacked, "ALERT", "done:", "detection rate"} {
		if !strings.Contains(text, want) {
			t.Errorf("watch output missing %q:\n%s", want, text)
		}
	}
}

func TestWatchValidation(t *testing.T) {
	cases := [][]string{
		{"-watch"}, // no input
		{"-watch", "-scenario", "no/such/scenario"},                      // unknown scenario
		{"-watch", "-scenario", "fusion/idle/SI-100", "-duration", "1s"}, // no room for the attack
		{"-watch", "-baselines", "x.csv"},                                // baselines need a scenario
		{"-watch", "-template", "/nonexistent", "x.csv"},                 // missing template
		{"-watch", "-train"},                                             // two modes
		{"-watch", "-whitelist", "x.csv"},                                // whitelist needs -prevent
		{"-watch", "-rate-slack", "2", "x.csv"},                          // rate-slack needs -prevent
		{"-watch", "-prevent", "-rate-slack", "2", "x.csv"},              // rate-slack needs -scenario
		{"-watch", "-prevent", "-block-top", "0", "x.csv"},               // positive block-top
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestWatchScenarioPrevent drives the closed loop from the CLI: the
// spoofed ID must be blocked, prevention scored against ground truth,
// and the blocked counter surfaced.
func TestWatchScenarioPrevent(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-watch", "-scenario", "fusion/idle/SI-100",
		"-alpha", "4", "-prevent", "-metrics", "0"}, &out)
	if err != nil {
		t.Fatalf("watch -prevent: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"prevention on", "ALERT", "BLOCK", "still quarantined",
		"attack frames blocked", "collateral", "detection rate"} {
		if !strings.Contains(text, want) {
			t.Errorf("prevention output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "0/800 attack frames blocked") {
		t.Errorf("prevention blocked nothing:\n%s", text)
	}
}

// TestWatchScenarioPreventWhitelist arms the legal-set filter against a
// flood of changeable (non-pool) identifiers: the gateway should stop
// the flood outright.
func TestWatchScenarioPreventWhitelist(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-watch", "-scenario", "fusion/idle/FI-500",
		"-alpha", "4", "-prevent", "-whitelist", "-duration", "6s", "-metrics", "0"}, &out)
	if err != nil {
		t.Fatalf("watch -prevent -whitelist: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "attack frames blocked") {
		t.Fatalf("no prevention scoring:\n%s", text)
	}
	if strings.Contains(text, " 0/") && strings.Contains(text, "(0.0%)") {
		t.Errorf("whitelist stopped nothing:\n%s", text)
	}
}

// TestWatchFilesMultibus splits one capture across two channel names
// and serves it through the supervisor: alerts must carry bus tags.
func TestWatchFilesMultibus(t *testing.T) {
	dir := t.TempDir()
	clean := makeCapture(t, dir, "clean.csv", vehicle.Idle, 5, 8*time.Second, nil)
	tmpl := filepath.Join(dir, "template.json")
	if err := run([]string{"-train", "-o", tmpl, clean}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	attacked := makeCapture(t, dir, "attacked.csv", vehicle.Idle, 7, 10*time.Second, &attack.Config{
		Scenario:  attack.Single,
		IDs:       []can.ID{0x0B5},
		Frequency: 100,
		Start:     2 * time.Second,
		Seed:      9,
	})
	// Re-tag half the records onto a second bus.
	tr, err := readLog(attacked)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr {
		if i%2 == 1 {
			tr[i].Channel = "can-b"
		} else {
			tr[i].Channel = "can-a"
		}
	}
	mixed := filepath.Join(dir, "mixed.csv")
	f, err := os.Create(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if err := run([]string{"-watch", "-template", tmpl, "-alpha", "4",
		"-multibus", "-metrics", "0", mixed}, &out); err != nil {
		t.Fatalf("watch -multibus: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "ALERT [can-a]") && !strings.Contains(text, "ALERT [can-b]") {
		t.Errorf("no bus-tagged alerts:\n%s", text)
	}
	if !strings.Contains(text, "done:") {
		t.Errorf("no summary:\n%s", text)
	}
}

// syncBuffer is a Writer safe to read while run() writes from another
// goroutine (the in-process serve tests).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// alertLines extracts the ALERT lines of a run's output — the part that
// must be invariant between a retrained and a snapshot-loaded model.
func alertLines(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "ALERT") {
			out = append(out, line)
		}
	}
	return out
}

// TestTrainSaveDetectLoad pins the persisted-model path end to end: a
// snapshot saved by -train drives -detect and -watch to byte-identical
// alert output versus the legacy template file.
func TestTrainSaveDetectLoad(t *testing.T) {
	dir := t.TempDir()
	clean := makeCapture(t, dir, "clean.csv", vehicle.Idle, 5, 8*time.Second, nil)
	tmpl := filepath.Join(dir, "template.json")
	snap := filepath.Join(dir, "model.snap")

	var out bytes.Buffer
	if err := run([]string{"-train", "-alpha", "4", "-o", tmpl, "-save", snap, clean}, &out); err != nil {
		t.Fatalf("train: %v", err)
	}
	if !strings.Contains(out.String(), "snapshot written to "+snap) {
		t.Errorf("train output missing snapshot line:\n%s", out.String())
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}

	attacked := makeCapture(t, dir, "attacked.csv", vehicle.Idle, 7, 10*time.Second, &attack.Config{
		Scenario:  attack.Single,
		IDs:       []can.ID{0x0B5},
		Frequency: 100,
		Start:     2 * time.Second,
		Seed:      9,
	})
	var viaTemplate, viaSnapshot bytes.Buffer
	if err := run([]string{"-detect", "-template", tmpl, "-alpha", "4", attacked}, &viaTemplate); err != nil {
		t.Fatalf("detect -template: %v", err)
	}
	if err := run([]string{"-detect", "-load", snap, attacked}, &viaSnapshot); err != nil {
		t.Fatalf("detect -load: %v", err)
	}
	want := alertLines(viaTemplate.String())
	got := alertLines(viaSnapshot.String())
	if len(want) == 0 {
		t.Fatalf("no alerts to compare:\n%s", viaTemplate.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("-load alerts differ from -template alerts:\n%v\nvs\n%v", got, want)
	}

	var watched bytes.Buffer
	if err := run([]string{"-watch", "-load", snap, "-metrics", "0", attacked}, &watched); err != nil {
		t.Fatalf("watch -load: %v", err)
	}
	if got := alertLines(watched.String()); len(got) != len(want) {
		t.Errorf("watch -load found %d alerts, detect found %d", len(got), len(want))
	}
}

// TestWatchScenarioSaveLoad round-trips a scenario-trained prevention
// model through a snapshot: the -load replay must print the same ALERT
// lines as the training run, without retraining.
func TestWatchScenarioSaveLoad(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "model.snap")
	// The training run arms the full policy through flags...
	saveArgs := []string{"-watch", "-scenario", "fusion/idle/SI-100", "-alpha", "4",
		"-metrics", "0", "-prevent", "-rate-slack", "4",
		"-whitelist", "-quarantine", "20s", "-save", snap}
	var trained bytes.Buffer
	if err := run(saveArgs, &trained); err != nil {
		t.Fatalf("watch -save: %v\n%s", err, trained.String())
	}
	if !strings.Contains(trained.String(), "snapshot written to "+snap) {
		t.Fatalf("no snapshot line:\n%s", trained.String())
	}

	var loaded bytes.Buffer
	// ...and the replay gives none of the model or policy flags: alpha,
	// whitelist, budgets, quarantine all come back from the snapshot.
	loadArgs := []string{"-watch", "-scenario", "fusion/idle/SI-100",
		"-metrics", "0", "-prevent", "-load", snap}
	if err := run(loadArgs, &loaded); err != nil {
		t.Fatalf("watch -load: %v\n%s", err, loaded.String())
	}
	if !strings.Contains(loaded.String(), "model from "+snap) {
		t.Errorf("loaded run does not announce the snapshot:\n%s", loaded.String())
	}
	for _, section := range []struct {
		name string
		pick func(string) []string
	}{
		{"ALERT", alertLines},
		{"BLOCK", func(s string) []string { return matchingLines(s, "BLOCK ") }},
		{"prevention score", func(s string) []string { return matchingLines(s, "prevention:") }},
	} {
		want := section.pick(trained.String())
		got := section.pick(loaded.String())
		if len(want) == 0 {
			t.Fatalf("training run has no %s lines:\n%s", section.name, trained.String())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("loaded model %s lines differ:\n%v\nvs\n%v", section.name, got, want)
		}
	}
}

// matchingLines returns the output lines containing substr.
func matchingLines(text, substr string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return out
}

// TestServeEndToEnd drives the daemon through the real CLI: train+save,
// serve on a random port, ingest the capture over HTTP, shut down via
// the admin endpoint, and check the served alert count equals the
// offline -detect run on the same file.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	clean := makeCapture(t, dir, "clean.csv", vehicle.Idle, 5, 8*time.Second, nil)
	snap := filepath.Join(dir, "model.snap")
	if err := run([]string{"-train", "-alpha", "4", "-o", filepath.Join(dir, "t.json"), "-save", snap, clean}, &bytes.Buffer{}); err != nil {
		t.Fatalf("train: %v", err)
	}
	attacked := makeCapture(t, dir, "attacked.csv", vehicle.Idle, 7, 10*time.Second, &attack.Config{
		Scenario:  attack.Single,
		IDs:       []can.ID{0x0B5},
		Frequency: 100,
		Start:     2 * time.Second,
		Seed:      9,
	})
	var offline bytes.Buffer
	if err := run([]string{"-detect", "-load", snap, attacked}, &offline); err != nil {
		t.Fatalf("detect: %v", err)
	}
	wantAlerts := len(alertLines(offline.String()))
	if wantAlerts == 0 {
		t.Fatal("offline run raised no alerts")
	}

	out := &syncBuffer{}
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- run([]string{"-serve", "-addr", "127.0.0.1:0", "-load", snap}, out)
	}()
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address:\n%s", out.String())
		}
		if m := regexp.MustCompile(`serving on (http://\S+) `).FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	body, err := os.ReadFile(attacked)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/ingest/ms-can?format=csv", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/admin/shutdown", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var down struct {
		AlertsTotal int `json:"alerts_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&down); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if down.AlertsTotal != wantAlerts {
		t.Errorf("served %d alerts, offline run found %d", down.AlertsTotal, wantAlerts)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "served ") {
		t.Errorf("no final summary:\n%s", out.String())
	}
}

// TestNewestCheckpoint pins the startup-fallback scan: the base path
// itself never matches, corrupt candidates are skipped even when they
// are newer, and the newest loadable per-bus checkpoint wins.
func TestNewestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	clean := makeCapture(t, dir, "clean.csv", vehicle.Idle, 5, 6*time.Second, nil)
	model := filepath.Join(dir, "model.snap")
	if err := run([]string{"-train", "-alpha", "4", "-o", filepath.Join(dir, "t.json"), "-save", model, clean}, &bytes.Buffer{}); err != nil {
		t.Fatalf("train: %v", err)
	}
	base := filepath.Join(dir, "ck.snap")
	if _, _, err := newestCheckpoint(base); err == nil {
		t.Fatal("scan with no candidates succeeded, want error")
	}
	if _, _, err := newestCheckpoint(model); err == nil {
		t.Fatal("base snapshot matched its own checkpoint pattern")
	}
	data, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	valid := filepath.Join(dir, "ck.ms-can.snap")
	if err := os.WriteFile(valid, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ck.other.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(valid, old, old); err != nil {
		t.Fatal(err)
	}
	_, name, err := newestCheckpoint(base)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if name != valid {
		t.Errorf("picked %s, want %s (corrupt-but-newer candidate must lose)", name, valid)
	}
}

// TestServeStartsFromCheckpoint covers the startup fallback end to end:
// with the base snapshot gone, -serve -checkpoint boots from the newest
// per-bus checkpoint, warns on stdout, and surfaces the degradation in
// /stats for the life of the daemon.
func TestServeStartsFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	clean := makeCapture(t, dir, "clean.csv", vehicle.Idle, 5, 6*time.Second, nil)
	model := filepath.Join(dir, "model.snap")
	if err := run([]string{"-train", "-alpha", "4", "-o", filepath.Join(dir, "t.json"), "-save", model, clean}, &bytes.Buffer{}); err != nil {
		t.Fatalf("train: %v", err)
	}
	ck := filepath.Join(dir, "ck.snap")
	data, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ck.ms-can.snap"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	out := &syncBuffer{}
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- run([]string{"-serve", "-addr", "127.0.0.1:0",
			"-load", filepath.Join(dir, "gone.snap"), "-adapt", "-checkpoint", ck}, out)
	}()
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address:\n%s", out.String())
		}
		if m := regexp.MustCompile(`serving on (http://\S+) `).FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !strings.Contains(out.String(), "starting from checkpoint") {
		t.Errorf("no fallback warning:\n%s", out.String())
	}

	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stats), "started from checkpoint") {
		t.Errorf("degradation missing from /stats: %s", stats)
	}

	resp, err = http.Post(base+"/admin/shutdown", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shutdown status %d", resp.StatusCode)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned: %v\n%s", err, out.String())
	}
}

// TestServeValidation pins the new flag-combination errors.
func TestServeValidation(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-serve"},                                                  // no snapshot
		{"-serve", "-load", "/nonexistent.snap"},                    // missing snapshot
		{"-serve", "-load", "x.snap", "file.csv"},                   // no input files
		{"-serve", "-watch"},                                        // two modes
		{"-train", "-load", "x.snap", "-save", "y.snap", "c.csv"},   // load+save
		{"-detect", "-save", filepath.Join(dir, "x.snap"), "a.csv"}, // save without training
		{"-watch", "-save", filepath.Join(dir, "x.snap"), "a.csv"},  // save in file mode
		{"-watch", "-scenario", "fusion/idle/SI-100", "-prevent", "-rate-slack", "2", "-load", "x.snap"}, // slack with load
		{"-detect", "-load", "x.snap", "-alpha", "4", "a.csv"},                                           // alpha is baked into the snapshot
		{"-watch", "-load", "x.snap", "-window", "2s", "a.csv"},                                          // window is baked into the snapshot
		{"-detect", "-load", "x.snap", "-template", "t.json", "a.csv"},                                   // template is baked into the snapshot
		{"-watch", "-load", "x.snap", "-max-body", "1024", "a.csv"},                                      // ingest limits need -serve
		{"-watch", "-load", "x.snap", "-ingest-timeout", "5s", "a.csv"},                                  // ingest limits need -serve
		{"-watch", "-load", "x.snap", "-faults", "engine.frame:panic@1", "a.csv"},                        // fault injection needs -serve
		{"-serve", "-load", "x.snap", "-max-body", "-1"},                                                 // negative body cap
		{"-serve", "-load", "x.snap", "-ingest-timeout", "-1s"},                                          // negative read deadline
		{"-serve", "-load", "x.snap", "-faults", "bogus spec"},                                           // malformed fault rule
		{"-watch", "-load", "x.snap", "-record", dir, "a.csv"},                                           // recording needs -serve
		{"-detect", "-load", "x.snap", "-journal", dir, "a.csv"},                                         // journaling needs -serve
		{"-serve", "-load", "x.snap", "-replay", dir},                                                    // two modes
		{"-replay", filepath.Join(dir, "no-such-capture")},                                               // missing capture
		{"-replay", dir, "stray.csv"},                                                                    // replay takes no files
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestServeAdaptEndToEnd drives online adaptation through the real
// CLI: serve -adapt -checkpoint behind an admin token, ingest clean
// traffic, require a promotion in /stats, checkpoint through the
// (authenticated) admin verb, and restart the daemon from the
// version-2 checkpoint.
func TestServeAdaptEndToEnd(t *testing.T) {
	dir := t.TempDir()
	clean := makeCapture(t, dir, "clean.csv", vehicle.Idle, 5, 8*time.Second, nil)
	snap := filepath.Join(dir, "model.snap")
	if err := run([]string{"-train", "-alpha", "4", "-o", filepath.Join(dir, "t.json"), "-save", snap, clean}, &bytes.Buffer{}); err != nil {
		t.Fatalf("train: %v", err)
	}
	drifted := makeCapture(t, dir, "drifted.csv", vehicle.Idle, 21, 10*time.Second, nil)
	ck := filepath.Join(dir, "ck.snap")

	startDaemon := func(args []string, out *syncBuffer) (string, chan error) {
		t.Helper()
		serveErr := make(chan error, 1)
		go func() { serveErr <- run(args, out) }()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("server never announced its address:\n%s", out.String())
			}
			if m := regexp.MustCompile(`serving on (http://\S+) `).FindStringSubmatch(out.String()); m != nil {
				return m[1], serveErr
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	req := func(method, url, token string, body []byte) (int, string) {
		t.Helper()
		r, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			r.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	out := &syncBuffer{}
	base, serveErr := startDaemon([]string{
		"-serve", "-addr", "127.0.0.1:0", "-load", snap,
		"-adapt", "-adapt-every", "3", "-checkpoint", ck, "-admin-token", "tok",
	}, out)
	if !strings.Contains(out.String(), "+adapt mode") {
		t.Errorf("startup line does not announce adaptation:\n%s", out.String())
	}

	body, err := os.ReadFile(drifted)
	if err != nil {
		t.Fatal(err)
	}
	if code, resp := req("POST", base+"/ingest/ms-can?format=csv", "", body); code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", code, resp)
	}
	// Ingest returns once every record is in the (buffered) feed; the
	// engines may still be scoring, so poll for the promotion.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, stats := req("GET", base+"/stats", "", nil)
		if code == http.StatusOK && regexp.MustCompile(`"promotions":[1-9]`).MatchString(stats) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no promotion in /stats (%d):\n%s", code, stats)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, _ := req("POST", base+"/admin/checkpoint", "", nil); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated checkpoint: %d, want 401", code)
	}
	if code, resp := req("POST", base+"/admin/checkpoint", "tok", nil); code != http.StatusOK {
		t.Fatalf("checkpoint status %d: %s", code, resp)
	}
	if code, _ := req("POST", base+"/admin/shutdown", "tok", nil); code != http.StatusOK {
		t.Fatalf("shutdown failed: %d", code)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "adaptation: ") {
		t.Errorf("no adaptation summary:\n%s", out.String())
	}

	// Restart from the per-bus checkpoint: the v2 snapshot loads, its
	// provenance is announced, and the daemon serves.
	ckFile := filepath.Join(dir, "ck.ms-can.snap")
	if _, err := os.Stat(ckFile); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	out2 := &syncBuffer{}
	base2, serveErr2 := startDaemon([]string{"-serve", "-addr", "127.0.0.1:0", "-load", ckFile}, out2)
	if !strings.Contains(out2.String(), "adaptation provenance") {
		t.Errorf("restart does not announce the snapshot's adaptation metadata:\n%s", out2.String())
	}
	if code, resp := req("POST", base2+"/ingest/ms-can?format=csv", "", body); code != http.StatusOK {
		t.Fatalf("restart ingest status %d: %s", code, resp)
	}
	if code, _ := req("POST", base2+"/admin/shutdown", "", nil); code != http.StatusOK {
		t.Fatalf("restart shutdown failed: %d", code)
	}
	if err := <-serveErr2; err != nil {
		t.Fatalf("restarted serve returned: %v\n%s", err, out2.String())
	}
}

// TestNewestCheckpointTieBreak pins the equal-mtime fix: coarse
// filesystem timestamps make ties routine (a rotation writes the
// primary and its .prev generation within the same tick), and the old
// scan let glob order decide — with an extensionless base, a stale
// .prev generation that sorted first would beat a primary checkpoint
// of the same age. Ties now break primary-first, then by name.
func TestNewestCheckpointTieBreak(t *testing.T) {
	dir := t.TempDir()
	clean := makeCapture(t, dir, "clean.csv", vehicle.Idle, 5, 6*time.Second, nil)
	model := filepath.Join(dir, "model.snap")
	if err := run([]string{"-train", "-alpha", "4", "-o", filepath.Join(dir, "t.json"), "-save", model, clean}, &bytes.Buffer{}); err != nil {
		t.Fatalf("train: %v", err)
	}
	data, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	when := time.Now().Add(-time.Hour).Truncate(time.Second)
	write := func(name string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, when, when); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Extensionless base: the pattern "ck.*" matches the .prev
	// generations too (they are also deduped against the explicit .prev
	// glob), and "ck.aa.prev" sorts before "ck.zz".
	stalePrev := write("ck.aa.prev")
	primary := write("ck.zz")
	_, name, err := newestCheckpoint(filepath.Join(dir, "ck"))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if name != primary {
		t.Errorf("equal mtimes picked %s, want the primary %s", name, primary)
	}

	// Recency still beats generation: a strictly newer .prev wins.
	newer := when.Add(time.Minute)
	if err := os.Chtimes(stalePrev, newer, newer); err != nil {
		t.Fatal(err)
	}
	if _, name, err = newestCheckpoint(filepath.Join(dir, "ck")); err != nil || name != stalePrev {
		t.Errorf("newer .prev generation lost the scan: %s, %v", name, err)
	}

	// With an extension, a primary ties against its own rotated .prev.
	pri := write("ck2.ms-can.snap")
	write("ck2.ms-can.snap.prev")
	if _, name, err = newestCheckpoint(filepath.Join(dir, "ck2.snap")); err != nil || name != pri {
		t.Errorf("primary vs own .prev at equal mtime: picked %s (%v), want %s", name, err, pri)
	}

	// Two tied primaries: the lexicographically smaller name, always.
	first := write("ck3.aa.snap")
	write("ck3.bb.snap")
	if _, name, err = newestCheckpoint(filepath.Join(dir, "ck3.snap")); err != nil || name != first {
		t.Errorf("tied primaries: picked %s (%v), want %s", name, err, first)
	}
}

// TestServeRecordReplayEndToEnd drives the incident workflow through
// the real CLI: serve with -record, ingest an attacked capture over
// HTTP, shut down, then -replay the capture directory and require the
// bit-for-bit journal verdict on stdout.
func TestServeRecordReplayEndToEnd(t *testing.T) {
	dir := t.TempDir()
	clean := makeCapture(t, dir, "clean.csv", vehicle.Idle, 5, 8*time.Second, nil)
	snap := filepath.Join(dir, "model.snap")
	if err := run([]string{"-train", "-alpha", "4", "-o", filepath.Join(dir, "t.json"), "-save", snap, clean}, &bytes.Buffer{}); err != nil {
		t.Fatalf("train: %v", err)
	}
	attacked := makeCapture(t, dir, "attacked.csv", vehicle.Idle, 7, 10*time.Second, &attack.Config{
		Scenario:  attack.Single,
		IDs:       []can.ID{0x0B5},
		Frequency: 100,
		Start:     2 * time.Second,
		Seed:      9,
	})
	capture := filepath.Join(dir, "incident")

	out := &syncBuffer{}
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- run([]string{"-serve", "-addr", "127.0.0.1:0", "-load", snap,
			"-record", capture}, out)
	}()
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address:\n%s", out.String())
		}
		if m := regexp.MustCompile(`serving on (http://\S+) `).FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !strings.Contains(out.String(), "recording to "+capture) {
		t.Errorf("serve does not announce the recording:\n%s", out.String())
	}
	// -record with no -journal defaults the alert journal into the capture.
	if !strings.Contains(out.String(), "alert journal: "+filepath.Join(capture, "journal")) {
		t.Errorf("journal did not default into the capture directory:\n%s", out.String())
	}

	body, err := os.ReadFile(attacked)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/ingest/ms-can?format=csv", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/admin/shutdown", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned: %v\n%s", err, out.String())
	}

	var rep bytes.Buffer
	if err := run([]string{"-replay", capture}, &rep); err != nil {
		t.Fatalf("replay: %v\n%s", err, rep.String())
	}
	text := rep.String()
	if !strings.Contains(text, "alert journal reproduced bit-for-bit") {
		t.Fatalf("replay did not verify the journal:\n%s", text)
	}
	m := regexp.MustCompile(`replayed \d+ records: \d+ frames, \d+ windows, (\d+) alerts`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no replay summary:\n%s", text)
	}
	if m[1] == "0" {
		t.Errorf("replay reproduced zero alerts; the verdict is vacuous:\n%s", text)
	}
}

// TestServeAdaptValidation pins the adaptation flag-combination errors.
func TestServeAdaptValidation(t *testing.T) {
	cases := [][]string{
		{"-serve", "-load", "x.snap", "-checkpoint", "c.snap"}, // checkpoint without adapt
		{"-serve", "-load", "x.snap", "-adapt-every", "3"},     // adapt-every without adapt
		{"-watch", "-adapt", "a.csv"},                          // adapt without serve
		{"-detect", "-checkpoint", "c.snap", "a.csv"},          // checkpoint without serve
		{"-train", "-admin-token", "t", "a.csv"},               // token without serve
		{"-detect", "-adapt-every", "2", "a.csv"},              // cadence without serve
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
