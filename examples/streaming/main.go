// Streaming: run the detection engine over a live scenario feed and
// show that the live stream is bit-identical to a replay of the same
// frames recorded to a trace.
//
// The example picks a multi-ID injection scenario from the matrix,
// trains the golden template and both baselines on the matrix's clean
// traffic, streams the scenario live through an engine with the
// baselines running alongside, and finally re-runs the recorded trace
// through a fresh engine to demonstrate the determinism contract.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"

	"canids/internal/baseline"
	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/engine/scenario"
	"canids/internal/model"
	"canids/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	specs := scenario.Matrix(1)
	spec, ok := scenario.Find(specs, "fusion/idle/MI2-50")
	if !ok {
		return fmt.Errorf("scenario missing from matrix")
	}

	// Train the paper's detector and the two Section V.E baselines on
	// the matrix's clean traffic across all driving behaviours.
	ccfg := core.DefaultConfig()
	ccfg.Alpha = 4 // the substrate's empirical operating point
	windows, err := scenario.TrainingWindows(specs, spec.Profile, ccfg.Window)
	if err != nil {
		return err
	}
	tmpl, err := core.BuildTemplate(windows, ccfg.Width, ccfg.MinFrames)
	if err != nil {
		return err
	}
	m, err := model.New(model.Spec{Epoch: 1, Core: ccfg, Template: tmpl})
	if err != nil {
		return err
	}
	muter, err := baseline.NewMuter(baseline.DefaultMuterConfig())
	if err != nil {
		return err
	}
	song, err := baseline.NewSong(baseline.DefaultSongConfig())
	if err != nil {
		return err
	}
	for _, d := range []detect.Detector{muter, song} {
		if err := d.Train(windows); err != nil {
			return err
		}
	}
	cfg := engine.Config{Baselines: []detect.Detector{muter, song}}

	eng, err := engine.NewFromModel(cfg, m)
	if err != nil {
		return err
	}

	// Live path: the scenario simulates in its own goroutine and feeds
	// the engine through a bounded channel, like a bus tap would.
	fmt.Printf("streaming %s through the engine + %d baselines...\n",
		spec.Name, len(cfg.Baselines))
	ctx := context.Background()
	ch := make(chan trace.Record, engine.DefaultBuffer)
	streamErr := make(chan error, 1)
	go func() { streamErr <- spec.Stream(ctx, ch) }()

	var live []detect.Alert
	st, err := eng.Run(ctx, engine.NewChanSource(ctx, ch), func(a detect.Alert) {
		live = append(live, a)
		fmt.Printf("  ALERT %s\n", a)
	})
	if err != nil {
		return err
	}
	if err := <-streamErr; err != nil {
		return err
	}
	fmt.Printf("live run: %d frames, %d windows, %d alerts\n\n",
		st.Frames, st.Windows, st.Alerts)

	// Determinism check: the same scenario recorded to a trace and
	// replayed through a fresh engine must yield the identical stream.
	recorded, err := spec.Run()
	if err != nil {
		return err
	}
	muter.Reset()
	song.Reset()
	eng1, err := engine.NewFromModel(cfg, m)
	if err != nil {
		return err
	}
	replayed, _, err := eng1.Detect(ctx, recorded)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(live, replayed) {
		return fmt.Errorf("replay changed the alert stream: %d live vs %d replayed", len(live), len(replayed))
	}
	fmt.Printf("recorded replay produced the identical %d-alert stream — the live path is invisible to results\n", len(replayed))
	return nil
}
