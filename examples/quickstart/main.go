// Quickstart: train a golden template on clean simulated traffic, then
// detect a single-ID injection attack and infer the malicious ID.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"canids/internal/attack"
	"canids/internal/bus"
	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/infer"
	"canids/internal/sim"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// capture runs the simulated vehicle for d and returns the traffic; when
// atk is non-nil the attack is launched alongside.
func capture(profile vehicle.Profile, seed int64, d time.Duration, atk *attack.Config) (trace.Trace, error) {
	sched := sim.NewScheduler()
	b, err := bus.New(sched, bus.Config{BitRate: bus.DefaultMSCANBitRate, Channel: "ms-can"})
	if err != nil {
		return nil, err
	}
	var log trace.Trace
	b.Tap(func(r trace.Record) { log = append(log, r) })
	profile.Attach(sched, b, vehicle.Options{Scenario: vehicle.Idle, Seed: seed})
	if atk != nil {
		if _, err := attack.Launch(sched, b, nil, *atk); err != nil {
			return nil, err
		}
	}
	if err := sched.RunUntil(d); err != nil {
		return nil, err
	}
	return log, nil
}

func run() error {
	// 1. A synthetic 2016-Fusion-like vehicle network: 223 periodic
	//    identifiers on a 125 kbit/s middle-speed CAN.
	profile := vehicle.NewFusionProfile(1)
	fmt.Printf("vehicle profile: %d ECUs, %d message IDs\n",
		len(profile.ECUs), len(profile.IDSet()))

	// 2. Train the golden template from clean driving (the paper
	//    averages 35 one-second measurements).
	clean, err := capture(profile, 7, 36*time.Second, nil)
	if err != nil {
		return err
	}
	detector := core.MustNew(core.DefaultConfig())
	if err := detector.Train(clean.Windows(time.Second, false)); err != nil {
		return err
	}
	tmpl, _ := detector.Template()
	fmt.Printf("golden template: %d windows, max per-bit spread %.2e\n",
		tmpl.Windows, tmpl.MaxRange())

	// 3. Simulate a single-ID injection attack at 100 Hz.
	injected := profile.IDSet()[42]
	attacked, err := capture(profile, 8, 10*time.Second, &attack.Config{
		Scenario:  attack.Single,
		IDs:       []can.ID{injected},
		Frequency: 100,
		Start:     3 * time.Second,
		Seed:      99,
	})
	if err != nil {
		return err
	}
	fmt.Printf("attack: injected ID %s, %d frames on the bus\n",
		injected, attacked.CountInjected())

	// 4. Detect and infer: one index of the legal pool, and one scratch,
	// rank every alert.
	ix, err := infer.NewIndex(profile.IDSet(), can.StandardIDBits)
	if err != nil {
		return err
	}
	var scratch infer.Scratch
	var alerts int
	for _, r := range attacked {
		for _, a := range detector.Observe(r) {
			alerts++
			res, err := ix.Rank(&scratch, a, infer.DefaultRank)
			if err != nil {
				return err
			}
			hit := "MISS"
			if res.Hit(injected) {
				hit = "HIT"
			}
			fmt.Printf("alert %s: top suspects %v -> %s\n", a.String(), res.Candidates[:3], hit)
		}
	}
	detector.Flush()
	if alerts == 0 {
		return fmt.Errorf("attack went undetected")
	}
	fmt.Printf("done: %d alerted windows\n", alerts)
	return nil
}
