package server_test

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/fault"
	"canids/internal/server"
	"canids/internal/store"
	"canids/internal/trace"
)

// faultStats is the /stats surface the chaos suite scripts against.
type faultStats struct {
	Buses             map[string]engine.Stats     `json:"buses"`
	Health            map[string]engine.BusHealth `json:"health"`
	Degraded          []string                    `json:"degraded"`
	CheckpointRetries uint64                      `json:"checkpoint_retries"`
}

func busAlerts(s *server.Server, channel string) []detect.Alert {
	var out []detect.Alert
	for _, ta := range s.Alerts(0) {
		if ta.Channel == channel {
			out = append(out, ta.Alert)
		}
	}
	return out
}

// reconcile asserts the exact accounting invariant of a drained fleet:
// every record the demux accepted for a bus is either in Frames or in
// Lost — never estimated, never double-counted.
func reconcile(t *testing.T, st faultStats, ch string) {
	t.Helper()
	h, b := st.Health[ch], st.Buses[ch]
	if h.Accepted != b.Frames+b.Lost {
		t.Errorf("%s: accepted %d != frames %d + lost %d", ch, h.Accepted, b.Frames, b.Lost)
	}
	if h.Lost != b.Lost {
		t.Errorf("%s: health lost %d != stats lost %d", ch, h.Lost, b.Lost)
	}
}

// truncateMidRecord cuts a CSV body a few bytes into a line, the way a
// client dying mid-upload would.
func truncateMidRecord(t *testing.T, csv []byte) []byte {
	t.Helper()
	idx := bytes.LastIndexByte(csv[:len(csv)/2], '\n')
	if idx < 0 || idx+4 > len(csv) {
		t.Fatal("fixture body too small to truncate")
	}
	return csv[:idx+4]
}

// TestServeIsolatesTruncatedIngest is the ingest-isolation contract:
// malformed and truncated uploads on one bus answer 400 and leave the
// other bus's alert stream bit-identical to the offline sequential run.
func TestServeIsolatesTruncatedIngest(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	want := offlineAlerts(t, snap, attacked)
	if len(want) == 0 {
		t.Fatal("offline run found no alerts; fixture too weak")
	}
	csv := encodeCSV(t, attacked)
	s, url := startServer(t, server.Config{Snapshot: snap, MaxAlerts: 1 << 20})
	if code := post(t, url+"/ingest/steady?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("steady ingest status %d", code)
	}
	var ing struct {
		Records int    `json:"records"`
		Error   string `json:"error"`
	}
	if code := post(t, url+"/ingest/victim?format=csv", truncateMidRecord(t, csv), &ing); code != http.StatusBadRequest {
		t.Fatalf("truncated ingest status %d", code)
	}
	if ing.Error == "" {
		t.Error("truncated ingest reported no error")
	}
	if code := post(t, url+"/ingest/victim?format=csv", []byte("not a can frame\n"), nil); code != http.StatusBadRequest {
		t.Fatal("garbage ingest accepted")
	}
	if code := post(t, url+"/admin/shutdown", nil, nil); code != http.StatusOK {
		t.Fatalf("shutdown status %d", code)
	}
	if got := busAlerts(s, "steady"); !reflect.DeepEqual(got, want) {
		t.Errorf("steady bus alerts disturbed by victim ingest (got %d, want %d)", len(got), len(want))
	}
}

// TestServeEnginePanicRestart is the serving-layer chaos e2e: one bus's
// engine panics at an exact frame, the supervisor restarts it (from the
// base snapshot — no checkpoint configured), the daemon keeps running,
// the steady bus's alerts are bit-identical to an undisturbed run, and
// the victim's lost frames are accounted exactly. The fleet leg arms
// the same seam on one vehicle's lane: only that vehicle's host
// restarts, every vehicle's accounting reconciles, and the vehicles on
// the other host keep their undisturbed alert streams.
func TestServeEnginePanicRestart(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	want := offlineAlerts(t, snap, attacked)
	csv := encodeCSV(t, attacked)
	// restarted polls /stats until ch's host has restarted and is back:
	// a drain that races the backoff window ends the stream with the
	// host still down, which is (correctly) reported as an error.
	restarted := func(t *testing.T, url, ch string) {
		t.Helper()
		var st faultStats
		deadline := time.Now().Add(10 * time.Second)
		for {
			if code := get(t, url+"/stats", &st); code != http.StatusOK {
				t.Fatalf("stats status %d", code)
			}
			if h := st.Health[ch]; h.Restarts >= 1 && h.State == engine.BusOK {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never restarted: %+v", ch, st.Health)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	t.Run("classic", func(t *testing.T) {
		inj := fault.New()
		inj.ArmPanic(fault.EngineFrame, "victim", 500, 1)
		s, url := startServer(t, server.Config{
			Snapshot: snap, MaxAlerts: 1 << 20,
			Fault: inj, RestartBackoff: time.Millisecond,
		})
		if code := post(t, url+"/ingest/steady?format=csv", csv, nil); code != http.StatusOK {
			t.Fatalf("steady ingest status %d", code)
		}
		if code := post(t, url+"/ingest/victim?format=csv", csv, nil); code != http.StatusOK {
			t.Fatalf("victim ingest status %d", code)
		}
		restarted(t, url, "victim")
		if code := post(t, url+"/admin/shutdown", nil, nil); code != http.StatusOK {
			t.Fatalf("shutdown status %d: the restart should absorb the crash", code)
		}
		var st faultStats
		if code := get(t, url+"/stats", &st); code != http.StatusOK {
			t.Fatalf("stats status %d", code)
		}
		hv := st.Health["victim"]
		if hv.State != engine.BusOK || hv.Restarts != 1 {
			t.Errorf("victim health = %+v, want ok with 1 restart", hv)
		}
		if st.Buses["victim"].Lost == 0 {
			t.Error("victim lost no frames across the crash — accounting missing")
		}
		if hs := st.Health["steady"]; hs.Restarts != 0 || hs.Lost != 0 {
			t.Errorf("steady health = %+v, want undisturbed", hs)
		}
		reconcile(t, st, "victim")
		reconcile(t, st, "steady")
		if st.Health["steady"].Accepted != uint64(len(attacked)) {
			t.Errorf("steady accepted %d, want %d", st.Health["steady"].Accepted, len(attacked))
		}
		if got := busAlerts(s, "steady"); !reflect.DeepEqual(got, want) {
			t.Errorf("steady bus alerts disturbed by victim crash (got %d, want %d)", len(got), len(want))
		}
	})
	t.Run("fleet", func(t *testing.T) {
		inj := fault.New()
		inj.ArmPanic(fault.EngineFrame, "veh-03", 500, 1)
		s, url := startServer(t, server.Config{
			Snapshot: snap, MaxAlerts: 1 << 20,
			Fleet: &server.FleetOptions{Engines: 2},
			Fault: inj, RestartBackoff: time.Millisecond,
		})
		vehicles := []string{"veh-00", "veh-01", "veh-02", "veh-03", "veh-04", "veh-05"}
		for _, v := range vehicles {
			if code := post(t, url+"/ingest/"+v+"?format=csv", csv, nil); code != http.StatusOK {
				t.Fatalf("%s ingest status %d", v, code)
			}
		}
		restarted(t, url, "veh-03")
		if code := post(t, url+"/admin/shutdown", nil, nil); code != http.StatusOK {
			t.Fatalf("shutdown status %d: the restart should absorb the crash", code)
		}
		var st faultStats
		if code := get(t, url+"/stats", &st); code != http.StatusOK {
			t.Fatalf("stats status %d", code)
		}
		if hv := st.Health["veh-03"]; hv.State != engine.BusOK || hv.Restarts != 1 {
			t.Errorf("veh-03 health = %+v, want ok with 1 restart", hv)
		}
		if st.Buses["veh-03"].Lost == 0 {
			t.Error("veh-03 lost no frames across the crash — accounting missing")
		}
		undisturbed := 0
		for _, v := range vehicles {
			reconcile(t, st, v)
			if st.Health[v].Accepted != uint64(len(attacked)) {
				t.Errorf("%s accepted %d, want %d", v, st.Health[v].Accepted, len(attacked))
			}
			if st.Health[v].Restarts > 0 {
				continue
			}
			undisturbed++
			if got := busAlerts(s, v); !reflect.DeepEqual(got, want) {
				t.Errorf("%s alerts disturbed by veh-03's crash (got %d, want %d)", v, len(got), len(want))
			}
		}
		if undisturbed == 0 {
			t.Error("every vehicle shares veh-03's host; isolation is untested")
		}
	})
}

// TestServeRestartFallbackLadder drives the full restore ladder: the
// bus's checkpoint is corrupted on disk, so a restart must fall back to
// the previous generation — and say so in the degradation log.
func TestServeRestartFallbackLadder(t *testing.T) {
	snap := gatewaySnapshot(t)
	_, clean, _ := loadFixture(t)
	base := filepath.Join(t.TempDir(), "model.snap")
	inj := fault.New()
	s, url := startServer(t, server.Config{
		Snapshot:       snap,
		Adapt:          &server.AdaptOptions{Every: 2, MinWindows: 2, RateSlack: 1.5},
		CheckpointPath: base,
		Fault:          inj, RestartBackoff: time.Millisecond,
	})
	csv := encodeCSV(t, clean)
	if code := post(t, url+"/ingest/ms-can?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	// Two explicit checkpoints: the second rotates the first into the
	// .prev generation the ladder will need. Poll the first — the bus
	// registers with its first demuxed record, which may lag the ingest
	// response.
	ck := server.CheckpointFile(base, "ms-can")
	deadline := time.Now().Add(10 * time.Second)
	for {
		var files struct {
			Files map[string]string `json:"files"`
		}
		if code := post(t, url+"/admin/checkpoint", nil, &files); code != http.StatusOK {
			t.Fatalf("checkpoint status %d", code)
		}
		if files.Files["ms-can"] == ck {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bus never checkpointed: %v", files.Files)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := post(t, url+"/admin/checkpoint", nil, nil); code != http.StatusOK {
		t.Fatal("second checkpoint failed")
	}
	if _, err := store.Load(ck + ".prev"); err != nil {
		t.Fatalf("no previous generation after two checkpoints: %v", err)
	}
	// Freeze adaptation: from here on no promotion nudges a background
	// checkpoint. One already queued or in flight at the pause can
	// still rewrite the files around the corruption, and the restart
	// then rightly finds a good checkpoint; that spoils only the
	// attempt it lands in, so retry from a fresh generation pair.
	if code := post(t, url+"/admin/adapt?action=pause", nil, nil); code != http.StatusOK {
		t.Fatal("pause failed")
	}
	const attempts = 4
	for attempt := 1; ; attempt++ {
		if code := post(t, url+"/admin/checkpoint", nil, nil); code != http.StatusOK {
			t.Fatal("checkpoint before corruption failed")
		}
		before := len(s.DegradedNotes())
		if err := os.WriteFile(ck, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		inj.ArmPanic(fault.EngineFrame, "ms-can", 100, 1)
		if code := post(t, url+"/ingest/ms-can?format=csv", csv, nil); code != http.StatusOK {
			t.Fatalf("ingest status %d", code)
		}
		deadline = time.Now().Add(10 * time.Second)
		for {
			var st faultStats
			if code := get(t, url+"/stats", &st); code != http.StatusOK {
				t.Fatalf("stats status %d", code)
			}
			if h := st.Health["ms-can"]; h.Restarts >= uint64(attempt) && h.State == engine.BusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("bus never restarted: %+v", st.Health)
			}
			time.Sleep(10 * time.Millisecond)
		}
		notes := strings.Join(s.DegradedNotes()[before:], "\n")
		corrupt := strings.Contains(notes, "unusable")
		fellBack := strings.Contains(notes, "previous checkpoint generation")
		if corrupt && fellBack {
			break
		}
		if attempt == attempts {
			if !corrupt {
				t.Errorf("degradation log does not record the corrupt checkpoint:\n%s", notes)
			}
			if !fellBack {
				t.Errorf("degradation log does not record the fallback:\n%s", notes)
			}
			break
		}
	}
	if err := s.Drain(); err != nil {
		t.Errorf("drain after recovered crash: %v", err)
	}
}

// TestServeCheckpointRetry: failed checkpoint writes are retried with
// backoff until the model lands on disk, and /stats counts the retries.
func TestServeCheckpointRetry(t *testing.T) {
	snap := gatewaySnapshot(t)
	_, clean, _ := loadFixture(t)
	base := filepath.Join(t.TempDir(), "model.snap")
	inj := fault.New()
	inj.ArmError(fault.CheckpointSave, "", 1, 2)
	_, url := startServer(t, server.Config{
		Snapshot:          snap,
		Adapt:             &server.AdaptOptions{Every: 2, MinWindows: 2, RateSlack: 1.5},
		CheckpointPath:    base,
		CheckpointBackoff: 5 * time.Millisecond,
		Fault:             inj,
	})
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, clean), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	// A promotion nudges the background checkpoint; the first two writes
	// are injected failures, so the file appearing at all proves the
	// retry loop ran.
	ck := server.CheckpointFile(base, "ms-can")
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := store.Load(ck); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never landed despite retries")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var st faultStats
	if code := get(t, url+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if st.CheckpointRetries < 1 {
		t.Errorf("checkpoint_retries = %d, want >= 1", st.CheckpointRetries)
	}
}

// TestServeCheckpointChangedOnly: a promotion's background save
// rewrites only the buses whose model changed since their last save —
// here the one bus still adapting, not the paused one — while the drain
// writes every bus.
func TestServeCheckpointChangedOnly(t *testing.T) {
	snap := gatewaySnapshot(t)
	_, clean, _ := loadFixture(t)
	base := filepath.Join(t.TempDir(), "model.snap")
	srv, url := startServer(t, server.Config{
		Snapshot:       snap,
		Adapt:          &server.AdaptOptions{Every: 2, MinWindows: 2, RateSlack: 1.5},
		CheckpointPath: base,
	})
	// One record brings the idle bus up; pausing it keeps its model.
	if code := post(t, url+"/ingest/idle?format=csv", encodeCSV(t, clean[:1]), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if code := post(t, url+"/admin/adapt?action=pause&channel=idle", nil, nil); code != http.StatusOK {
		t.Fatalf("pause status %d", code)
	}
	busy, idle := server.CheckpointFile(base, "busy"), server.CheckpointFile(base, "idle")
	stat := func(path string) os.FileInfo {
		fi, err := os.Stat(path)
		if err != nil {
			return nil
		}
		return fi
	}
	// sameSave reports whether two stats are of one save: the inode, and
	// the modification time, since a file can reuse the inode of a
	// generation freed two saves ago.
	sameSave := func(a, b os.FileInfo) bool {
		return a != nil && b != nil && os.SameFile(a, b) && a.ModTime().Equal(b.ModTime())
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(15 * time.Second); !ok(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// savedPromotions is how many promotions the busy bus's file holds,
	// once the bus has scored every ingested record and its file caught
	// up with its promotions.
	savedPromotions := func(frames int) uint64 {
		t.Helper()
		var n uint64
		waitFor("the busy bus's checkpoint to catch up", func() bool {
			var st faultStats
			if code := get(t, url+"/stats", &st); code != http.StatusOK || st.Buses["busy"].Frames != uint64(frames) {
				return false
			}
			ck, err := store.Load(busy)
			if err != nil || ck.Adapt == nil {
				return false
			}
			n = ck.Adapt.Promotions
			return n > 0 && n == srv.AdaptStatus()["busy"].Promotions
		})
		return n
	}

	// The first promotion saves both buses: neither was saved yet.
	if code := post(t, url+"/ingest/busy?format=csv", encodeCSV(t, clean), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	first := savedPromotions(len(clean))
	idleSaved := stat(idle)
	if idleSaved == nil {
		t.Fatal("the first promotion's save skipped the never-saved bus")
	}

	// Later promotions of the busy bus rewrite its file only.
	later := make(trace.Trace, len(clean))
	shift := clean[len(clean)-1].Time + time.Second
	for i, r := range clean {
		r.Time += shift
		later[i] = r
	}
	if code := post(t, url+"/ingest/busy?format=csv", encodeCSV(t, later), nil); code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if n := savedPromotions(2 * len(clean)); n <= first {
		t.Fatalf("no later promotion saved (%d, then %d)", first, n)
	}
	if !sameSave(stat(idle), idleSaved) {
		t.Error("a promotion on another bus rewrote the unchanged bus's checkpoint")
	}
	if p := srv.AdaptStatus()["idle"].Promotions; p != 0 {
		t.Fatalf("paused bus promoted %d times", p)
	}

	// The drain saves every bus.
	busySaved := stat(busy)
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	for path, before := range map[string]os.FileInfo{busy: busySaved, idle: idleSaved} {
		if fi := stat(path); fi == nil || sameSave(fi, before) {
			t.Errorf("drain did not rewrite %s", filepath.Base(path))
		}
	}
}

// TestServeIngestBodyLimit: an upload past Config.MaxBody answers 413.
func TestServeIngestBodyLimit(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	_, url := startServer(t, server.Config{Snapshot: snap, MaxBody: 64})
	var resp struct {
		Error string `json:"error"`
	}
	if code := post(t, url+"/ingest/ms-can?format=csv", encodeCSV(t, attacked), &resp); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest status %d, want 413", code)
	}
	if !strings.Contains(resp.Error, "64 byte") {
		t.Errorf("413 error %q does not name the limit", resp.Error)
	}
}

// TestServeIngestStallTimeout: a client that stalls mid-body past
// Config.IngestTimeout answers 408 instead of pinning the ingest slot.
func TestServeIngestStallTimeout(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	_, url := startServer(t, server.Config{Snapshot: snap, IngestTimeout: 200 * time.Millisecond})
	csv := encodeCSV(t, attacked)
	// A valid prefix (whole lines), then silence with the body open.
	head := csv[:bytes.IndexByte(csv, '\n')+1]
	pr, pw := io.Pipe()
	defer pw.Close()
	codeCh := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/ingest/ms-can?format=csv", "text/plain", pr)
		if err != nil {
			t.Errorf("post: %v", err)
			codeCh <- 0
			return
		}
		resp.Body.Close()
		codeCh <- resp.StatusCode
	}()
	if _, err := pw.Write(head); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-codeCh:
		if code != http.StatusRequestTimeout {
			t.Fatalf("stalled ingest status %d, want 408", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("stalled ingest never timed out")
	}
}

// TestServeIngestShedsBacklog: with the pipeline wedged (injected
// stall on every frame) and a one-slab feed, an ingest that cannot make
// progress within ShedAfter is shed with 429 + Retry-After rather than
// blocking the client indefinitely.
func TestServeIngestShedsBacklog(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	inj := fault.New()
	inj.ArmStall(fault.EngineFrame, "", 1, 0, 100*time.Millisecond)
	t.Cleanup(inj.Close)
	_, url := startServer(t, server.Config{
		Snapshot: snap, Buffer: 1, Batch: 1,
		ShedAfter: 30 * time.Millisecond,
		Fault:     inj,
	})
	resp, err := http.Post(url+"/ingest/ms-can?format=csv", "text/plain", bytes.NewReader(encodeCSV(t, attacked)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backlogged ingest status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
}

// TestServeDeadBusHealthz: a bus that exhausts its restart budget goes
// dead — /healthz answers 503 "degraded", the steady bus keeps
// accepting traffic, and the dead bus's drain accounting stays exact.
func TestServeDeadBusHealthz(t *testing.T) {
	snap, _, attacked := loadFixture(t)
	inj := fault.New()
	inj.ArmPanic(fault.EngineFrame, "victim", 200, 0)
	s, url := startServer(t, server.Config{
		Snapshot: snap, MaxAlerts: 1 << 20,
		Fault: inj, MaxRestarts: -1, RestartBackoff: time.Millisecond,
	})
	csv := encodeCSV(t, attacked)
	if code := post(t, url+"/ingest/steady?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("steady ingest status %d", code)
	}
	if code := post(t, url+"/ingest/victim?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("victim ingest status %d", code)
	}
	var health struct {
		Status string `json:"status"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := get(t, url+"/healthz", &health); code == http.StatusServiceUnavailable {
			if health.Status != "degraded" {
				t.Fatalf("503 healthz status %q, want degraded", health.Status)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported the dead bus")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The fleet is degraded, not down: the steady bus still ingests.
	if code := post(t, url+"/ingest/steady?format=csv", csv, nil); code != http.StatusOK {
		t.Fatalf("steady ingest after victim death: status %d", code)
	}
	if err := s.Drain(); err == nil || !strings.Contains(err.Error(), "dead") {
		t.Fatalf("drain error = %v, want dead-bus report", err)
	}
	var st faultStats
	if code := get(t, url+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if hv := st.Health["victim"]; hv.State != engine.BusDead {
		t.Errorf("victim health = %+v, want dead", hv)
	}
	if st.Buses["victim"].Lost == 0 {
		t.Error("dead bus lost nothing — drain accounting missing")
	}
	reconcile(t, st, "victim")
	reconcile(t, st, "steady")
	if st.Health["steady"].Accepted != uint64(2*len(attacked)) {
		t.Errorf("steady accepted %d, want %d", st.Health["steady"].Accepted, 2*len(attacked))
	}
}
