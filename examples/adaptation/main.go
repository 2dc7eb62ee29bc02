// Adaptation: the online-learning loop behind `canids -serve -adapt`,
// end to end and in-process — a long-running daemon that tracks traffic
// drift without an operator, and remembers what it learned across a
// restart.
//
//  1. Train a prevention-armed model (gateway + rate budgets) on one
//     driving behaviour and persist it.
//  2. Serve it with adaptation and checkpointing on, and ingest clean
//     traffic from a *different* behaviour — the drift: new per-ID
//     rates the trained budgets never saw.
//  3. Watch the adapter classify windows, promote re-learned budgets at
//     window boundaries, and checkpoint the adapted model as a
//     version-2 snapshot.
//  4. Restart: a second daemon -loads the checkpoint; the adapted
//     budgets and the adaptation provenance survived.
//
// Run with:
//
//	go run ./examples/adaptation
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
	"time"

	"canids/internal/bus"
	"canids/internal/core"
	"canids/internal/gateway"
	"canids/internal/server"
	"canids/internal/sim"
	"canids/internal/store"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

const adminToken = "example-token"

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Train on idle driving; learn tight budgets from its windows.
	coreCfg := core.DefaultConfig()
	coreCfg.Alpha = 4
	training, err := simulate(vehicle.Idle, 5, 10*time.Second)
	if err != nil {
		return err
	}
	windows := training.Windows(coreCfg.Window, false)
	tmpl, err := core.BuildTemplate(windows, coreCfg.Width, coreCfg.MinFrames)
	if err != nil {
		return err
	}
	gw, err := gateway.New(gateway.Config{RateWindow: coreCfg.Window, RateSlack: 1.2})
	if err != nil {
		return err
	}
	if err := gw.LearnRates(windows); err != nil {
		return err
	}
	snap, err := store.New(coreCfg, tmpl, training.IDs())
	if err != nil {
		return err
	}
	snap.Gateway = store.CaptureGateway(gw)
	dir, err := os.MkdirTemp("", "canids-adaptation-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "model.snap")
	if err := store.Save(modelPath, snap); err != nil {
		return err
	}
	fmt.Printf("trained on idle driving: %d windows, %d budget IDs\n", tmpl.Windows, len(snap.Gateway.Budgets))

	// 2. Serve with adaptation + checkpointing, behind an admin token.
	ckBase := filepath.Join(dir, "checkpoint.snap")
	srv, base, shutdown, err := serveDaemon(modelPath, &server.AdaptOptions{
		Every: 3, MinWindows: 3, RateSlack: 1.2,
	}, ckBase)
	if err != nil {
		return err
	}

	// Drifted clean traffic: cruise driving on the same fleet — higher
	// rates on several identifiers than idle ever showed.
	drifted, err := simulate(vehicle.Cruise, 11, 12*time.Second)
	if err != nil {
		return err
	}
	if err := ingest(base, drifted); err != nil {
		return err
	}

	// 3. Wait for the pipeline to settle and read the adaptation state.
	status, err := waitForPromotion(base)
	if err != nil {
		return err
	}
	fmt.Printf("adaptation: %s\n", status)

	// Checkpoint explicitly (promotions also checkpoint in the
	// background) and shut the daemon down.
	req, err := http.NewRequest("POST", base+"/admin/checkpoint", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("checkpoint -> %s", msg)
	if err := shutdown(); err != nil {
		return err
	}
	_ = srv

	// 4. Restart from the checkpoint: the learned budgets survived.
	ckPath := server.CheckpointFile(ckBase, "ms-can")
	restored, err := store.Load(ckPath)
	if err != nil {
		return err
	}
	fmt.Printf("\nrestart from %s:\n", filepath.Base(ckPath))
	fmt.Printf("  version-2 provenance: %d promotions over %d windows (%d clean), drift %.2e\n",
		restored.Adapt.Promotions, restored.Adapt.Windows, restored.Adapt.Clean, restored.Adapt.Drift)
	changed := 0
	for id, b := range restored.Gateway.Budgets {
		if old, ok := snap.Gateway.Budgets[id]; !ok || old != b {
			changed++
		}
	}
	fmt.Printf("  budgets: %d IDs, %d changed versus the trained table\n", len(restored.Gateway.Budgets), changed)
	if restored.Adapt.Promotions == 0 || changed == 0 {
		return fmt.Errorf("adaptation learned nothing; drift not visible")
	}

	srv2, base2, shutdown2, err := serveDaemon(ckPath, nil, "")
	if err != nil {
		return err
	}
	if err := ingest(base2, drifted); err != nil {
		return err
	}
	if err := shutdown2(); err != nil {
		return err
	}
	total, _ := srv2.Stats()
	fmt.Printf("  restarted daemon served %d frames, %d windows, %d alerts on the drifted traffic\n",
		total.Frames, total.Windows, srv2.AlertsTotal())
	return nil
}

// serveDaemon builds, starts and mounts one daemon, returning its base
// URL and a shutdown function that drains it.
func serveDaemon(modelPath string, adapt *server.AdaptOptions, checkpoint string) (*server.Server, string, func() error, error) {
	snap, err := store.Load(modelPath)
	if err != nil {
		return nil, "", nil, err
	}
	srv, err := server.New(server.Config{
		Snapshot:       snap,
		Adapt:          adapt,
		CheckpointPath: checkpoint,
		AdminToken:     adminToken,
	})
	if err != nil {
		return nil, "", nil, err
	}
	if err := srv.Start(context.Background()); err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // closed via Shutdown below
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving %s on %s\n", filepath.Base(modelPath), base)
	shutdown := func() error {
		err := srv.Drain()
		hs.Shutdown(context.Background()) //nolint:errcheck
		return err
	}
	return srv, base, shutdown, nil
}

// waitForPromotion polls /admin/adapt until a promotion lands.
func waitForPromotion(base string) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequest("GET", base+"/admin/adapt", nil)
		if err != nil {
			return "", err
		}
		req.Header.Set("Authorization", "Bearer "+adminToken)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return "", err
		}
		var st struct {
			Buses map[string]struct {
				Windows    uint64  `json:"windows"`
				Clean      uint64  `json:"clean"`
				Promotions uint64  `json:"promotions"`
				BudgetIDs  int     `json:"budget_ids"`
				Drift      float64 `json:"drift"`
			} `json:"buses"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if b, ok := st.Buses["ms-can"]; ok && b.Promotions > 0 {
			return fmt.Sprintf("%d windows (%d clean) -> %d promotions, %d budget IDs, template drift %.2e",
				b.Windows, b.Clean, b.Promotions, b.BudgetIDs, b.Drift), nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no promotion within the deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// simulate records clean traffic from the Fusion profile.
func simulate(scen vehicle.Scenario, seed int64, d time.Duration) (trace.Trace, error) {
	sched := sim.NewScheduler()
	b, err := bus.New(sched, bus.Config{BitRate: bus.DefaultMSCANBitRate, Channel: "ms-can"})
	if err != nil {
		return nil, err
	}
	var log trace.Trace
	b.Tap(func(r trace.Record) { log = append(log, r) })
	vehicle.NewFusionProfile(1).Attach(sched, b, vehicle.Options{Scenario: scen, Seed: seed})
	if err := sched.RunUntil(d); err != nil {
		return nil, err
	}
	return log, nil
}

// ingest posts the records as one CSV body.
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
