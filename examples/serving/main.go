// Serving: the train-once / serve-forever lifecycle behind `canids
// -serve`, end to end and in-process — the paper's offline-training /
// online-detection split turned into a long-running service.
//
//  1. Train the golden template on the matrix's clean driving traffic
//     and persist it as a versioned, checksummed store.Snapshot.
//  2. Start the HTTP serving daemon from the snapshot (no retraining).
//  3. Ingest an attacked capture over HTTP, in chunks, like a bus tap
//     that uploads every few seconds.
//  4. Hot-reload a snapshot mid-stream: the swap lands at a window
//     boundary, with zero dropped frames and no torn windows.
//  5. Drain: final windows flush, and the summary matches an offline
//     replay of the same records.
//
// Run with:
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"canids/internal/core"
	"canids/internal/engine/scenario"
	"canids/internal/server"
	"canids/internal/store"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const name = "fusion/idle/SI-100"
	specs := scenario.Matrix(1)
	spec, ok := scenario.Find(specs, name)
	if !ok {
		return fmt.Errorf("scenario %s missing", name)
	}

	// 1. Train once, save the snapshot.
	coreCfg := scenarioCore()
	tmpl, err := scenario.Train(specs, spec.Profile, coreCfg)
	if err != nil {
		return err
	}
	pool := vehicle.NewFusionProfile(spec.ProfileSeed).IDSet()
	snap, err := store.New(coreCfg, tmpl, pool)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "canids-serving-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.snap")
	if err := store.Save(path, snap); err != nil {
		return err
	}
	fmt.Printf("trained on %d clean windows; snapshot saved to %s\n", tmpl.Windows, path)

	// 2. Serve the snapshot — fresh process semantics: load from disk.
	loaded, err := store.Load(path)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Snapshot: loaded})
	if err != nil {
		return err
	}
	if err := srv.Start(context.Background()); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // closed via Shutdown below
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	// 3. Ingest the attacked scenario in chunks over HTTP.
	attacked, err := spec.Run()
	if err != nil {
		return err
	}
	half := len(attacked) / 2
	if err := ingest(base, attacked[:half]); err != nil {
		return err
	}

	// 4. Hot reload mid-stream — a fleet pushing its nightly retrain.
	// Here the artifacts are identical (the mechanics are the point):
	// the swap still lands at each engine's next window boundary, with
	// no dropped frames and no torn windows.
	var body bytes.Buffer
	if err := store.Encode(&body, loaded); err != nil {
		return err
	}
	resp, err := http.Post(base+"/admin/reload", "application/octet-stream", &body)
	if err != nil {
		return err
	}
	reloadMsg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("reload -> %s", reloadMsg)

	if err := ingest(base, attacked[half:]); err != nil {
		return err
	}

	// 5. Drain via the admin endpoint and read the final summary.
	resp, err = http.Post(base+"/admin/shutdown", "", nil)
	if err != nil {
		return err
	}
	var down struct {
		AlertsTotal uint64 `json:"alerts_total"`
		Total       struct {
			Frames  uint64 `json:"Frames"`
			Windows uint64 `json:"Windows"`
		} `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&down); err != nil {
		return err
	}
	resp.Body.Close()
	hs.Shutdown(context.Background()) //nolint:errcheck

	fmt.Printf("\ndrained: %d frames, %d windows, %d alerts\n",
		down.Total.Frames, down.Total.Windows, down.AlertsTotal)
	for _, ta := range srv.Alerts(3) {
		fmt.Printf("  newest: [%s] %s\n", ta.Channel, ta.Alert)
	}
	if down.AlertsTotal == 0 {
		return fmt.Errorf("the injection went undetected")
	}
	return nil
}

// scenarioCore is the substrate's empirical operating point.
func scenarioCore() core.Config {
	cfg := core.DefaultConfig()
	cfg.Alpha = 4
	return cfg
}

// ingest posts one chunk of records as a CSV body.
func ingest(base string, tr trace.Trace) error {
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr); err != nil {
		return err
	}
	resp, err := http.Post(base+"/ingest/ms-can?format=csv", "text/csv", &buf)
	if err != nil {
		return err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest: %s", msg)
	}
	fmt.Printf("ingested %d records -> %s", len(tr), msg)
	return nil
}
