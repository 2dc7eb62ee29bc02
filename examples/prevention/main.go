// Prevention: the full defensive loop the paper's introduction promises
// — detect the injection, infer the malicious identifier, and block it
// at the gateway so "the malicious messages containing those IDs would
// be discarded or blocked" — running on the streaming engine.
//
// The engine wires the loop deterministically: the gateway classifies
// every record in stream order, forwarded frames are counted into the
// detection window, each window's alert feeds the responder, and each
// block propagates back to the gateway before the next detection
// window's records are classified, so the rest of the attack is
// dropped mid-stream — the same result on every run.
//
// Run with:
//
//	go run ./examples/prevention
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/engine/scenario"
	"canids/internal/gateway"
	"canids/internal/response"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The catalogue's single-ID injection: a legal identifier spoofed at
	// 100 Hz from t=2s, against the Fusion-like profile.
	const name = "fusion/idle/SI-100"
	specs := scenario.Matrix(1)
	spec, ok := scenario.Find(specs, name)
	if !ok {
		return fmt.Errorf("scenario %s missing", name)
	}

	// Train the golden template on the matrix's clean driving traffic.
	cfg := engine.DefaultConfig()
	cfg.Core.Alpha = 4
	tmpl, err := scenario.Train(specs, spec.Profile, cfg.Core)
	if err != nil {
		return err
	}

	// Defensive stack: gateway pre-filter + responder closing the loop.
	pool := vehicle.NewFusionProfile(spec.ProfileSeed).IDSet()
	gw, err := gateway.New(gateway.DefaultConfig(nil)) // blocklist-driven; no whitelist
	if err != nil {
		return err
	}
	respCfg := response.DefaultConfig(pool)
	respCfg.Quarantine = 60 * time.Second
	responder, err := response.New(gw, respCfg)
	if err != nil {
		return err
	}
	cfg.Gateway = gw
	cfg.Responder = responder

	eng, err := engine.NewTrained(cfg, tmpl)
	if err != nil {
		return err
	}

	// Stream the attack live: simulation goroutine → bounded channel →
	// engine. Injected frames that make it past the gateway are leaks.
	ctx := context.Background()
	ch := make(chan trace.Record, engine.DefaultBuffer)
	streamErr := make(chan error, 1)
	go func() { streamErr <- spec.Stream(ctx, ch) }()

	fmt.Printf("streaming %s through the engine with prevention\n\n", name)
	injected := 0
	src := countInjected{src: engine.NewChanSource(ctx, ch), injected: &injected}
	st, err := eng.Run(ctx, src, func(a detect.Alert) {
		fmt.Printf("ALERT %s\n", a)
	})
	if err != nil {
		return err
	}
	if err := <-streamErr; err != nil {
		return err
	}

	for _, act := range responder.Actions() {
		fmt.Printf("  -> blocked %v until %v\n", act.Blocked, act.Until)
	}
	stopped := st.DroppedInjected
	leaked := uint64(injected) - stopped
	fmt.Printf("\noutcome: %d frames, %d windows; %d/%d injected frames stopped at the gateway, %d leaked through\n",
		st.Frames, st.Windows, stopped, injected, leaked)
	fmt.Printf("gateway stats: %+v\n", gw.Stats())
	if stopped == 0 {
		return fmt.Errorf("prevention failed: nothing was stopped")
	}
	return nil
}

// countInjected tallies the attack frames on the wire (ground truth),
// before the gateway rules on them.
type countInjected struct {
	src      engine.Source
	injected *int
}

func (c countInjected) Next() (trace.Record, error) {
	rec, err := c.src.Next()
	if err == nil && rec.Injected {
		*c.injected++
	}
	return rec, err
}
