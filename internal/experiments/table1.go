package experiments

import (
	"fmt"
	"math"
	"strings"

	"canids/internal/attack"
	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/infer"
	"canids/internal/metrics"
	"canids/internal/sim"
	"canids/internal/vehicle"
)

// Table1Frequencies are the paper's injection frequencies.
var Table1Frequencies = []float64{100, 50, 20, 10}

// RunOutcome is one injection run's scores, kept for frequency-level
// breakdowns.
type RunOutcome struct {
	// Frequency is the per-attacker injection frequency in Hz.
	Frequency float64
	// DetectionRate is the run's D_r.
	DetectionRate float64
	// Hits and Trials are the inference tallies.
	Hits, Trials int
	// IDs are the injected identifiers.
	IDs []can.ID
}

// Table1Row is one scenario's aggregate result.
type Table1Row struct {
	// Scenario is the paper's row label.
	Scenario string
	// DetectionRate is D_r averaged over all runs of the scenario.
	DetectionRate float64
	// InferAccuracy is the rank-n hit rate; NaN for the flooding row
	// (the paper prints "--": random changeable IDs admit no inference).
	InferAccuracy float64
	// Runs is the number of independent runs aggregated.
	Runs int
	// Detail holds the per-run outcomes.
	Detail []RunOutcome
}

// Table1Result reproduces Table I.
type Table1Result struct {
	Rows []Table1Row
}

// table1Paper holds the paper's reported numbers for side-by-side
// printing in EXPERIMENTS.md.
var table1Paper = map[string][2]float64{
	"Flood":                {1.00, math.NaN()},
	"Single Injection":     {0.91, 0.972},
	"Multiple_Injection_2": {0.97, 0.918},
	"Multiple_Injection_3": {0.972, 0.885},
	"Multiple_Injection_4": {0.9997, 0.697},
	"Weak Injection":       {0.93, 0.966},
}

// PaperValues returns the paper's (detection rate, inferring accuracy)
// for a row label; the second value is NaN where the paper prints "--".
func PaperValues(scenario string) ([2]float64, bool) {
	v, ok := table1Paper[scenario]
	return v, ok
}

// scenarioOutcome aggregates one run's scores.
type scenarioOutcome struct {
	dr       float64
	hits     int
	trials   int
	hasInfer bool
	freq     float64
	ids      []can.ID
}

// runScenario executes one attack run and scores detection + inference.
// It builds a private detector from the shared template, and ranks with
// a private scratch against the shared (read-only) pool index, so
// concurrent scenario runs never share mutable state.
func runScenario(p Params, profile vehicle.Profile, tmpl core.Template,
	ix *infer.Index, cfg attack.Config, weakECU string, runSeed int64) (scenarioOutcome, error) {

	res, err := cachedRun(p, profile, runOptions{
		scenario:  vehicle.Idle,
		seed:      runSeed,
		duration:  12 * p.Window,
		attackCfg: &cfg,
		weakECU:   weakECU,
	})
	if err != nil {
		return scenarioOutcome{}, err
	}
	d, err := newDetector(p, tmpl)
	if err != nil {
		return scenarioOutcome{}, err
	}
	alerts := replay(d, res.trace)
	out := scenarioOutcome{
		dr:   metrics.DetectionRate(res.trace, alerts),
		freq: cfg.Frequency,
		ids:  cfg.IDs,
	}

	// Inference: every alert yields a rank-n candidate set, scored per
	// injected identifier.
	if cfg.Scenario != attack.Flood {
		out.hasInfer = true
		var s infer.Scratch
		for _, a := range alerts {
			r, err := ix.Rank(&s, a, p.Rank)
			if err != nil {
				return scenarioOutcome{}, err
			}
			out.hits += r.HitCount(cfg.IDs)
			out.trials += len(cfg.IDs)
		}
	}
	return out, nil
}

// pickIDs deterministically selects k test identifiers spanning the pool
// priority range, offset by a draw index so repeated draws differ.
func pickIDs(pool []can.ID, k, draw int) []can.ID {
	out := make([]can.ID, 0, k)
	n := len(pool)
	for i := 0; i < k; i++ {
		idx := (draw*37 + i*n/k + n/(2*k)) % n
		out = append(out, pool[idx])
	}
	return out
}

// table1Job is one fully seeded scenario run, derived before dispatch so
// that the seed sequence matches the historical sequential order
// regardless of worker-pool width.
type table1Job struct {
	label   string
	cfg     attack.Config
	weakECU string
	runSeed int64
}

// table1RowOrder is the paper's row order.
var table1RowOrder = []string{
	"Flood",
	"Single Injection",
	"Multiple_Injection_2",
	"Multiple_Injection_3",
	"Multiple_Injection_4",
	"Weak Injection",
}

// Table1 reproduces Table I: detection rate and inferring accuracy for
// the six attack rows, averaged across the paper's four injection
// frequencies and several identifier draws. All runs are seeded up
// front in the fixed historical order and fan out across the worker
// pool; aggregation walks the job list in order, so the table is
// bit-identical whether it ran on one worker or many.
func Table1(p Params) (Table1Result, error) {
	tmpl, profile, err := TrainTemplate(p)
	if err != nil {
		return Table1Result{}, err
	}
	pool := profile.IDSet()
	ix, err := infer.NewIndex(pool, can.StandardIDBits)
	if err != nil {
		return Table1Result{}, err
	}

	seedCounter := int64(0x1000)
	nextSeed := func() int64 {
		seedCounter++
		return sim.SplitSeed(p.Seed, seedCounter)
	}
	var jobs []table1Job
	add := func(label string, cfg attack.Config, weakECU string) {
		cfg.Seed = nextSeed()
		jobs = append(jobs, table1Job{label: label, cfg: cfg, weakECU: weakECU, runSeed: nextSeed()})
	}

	// Row 1 — Flood: changeable high-priority IDs at high frequency.
	for i := 0; i < 3; i++ {
		add("Flood", attack.Config{
			Scenario:  attack.Flood,
			Frequency: 500,
			Start:     2 * p.Window,
			Duration:  8 * p.Window,
		}, "")
	}

	// Row 2 — Single injection: every frequency × several IDs spanning
	// the priority range ("the average on every test CAN IDs").
	for _, f := range Table1Frequencies {
		for draw := 0; draw < 4; draw++ {
			add("Single Injection", attack.Config{
				Scenario:  attack.Single,
				IDs:       pickIDs(pool, 1, draw),
				Frequency: f,
				Start:     2 * p.Window,
				Duration:  8 * p.Window,
			}, "")
		}
	}

	// Rows 3-5 — Multi injection with 2, 3 and 4 IDs.
	for _, k := range []int{2, 3, 4} {
		for _, f := range Table1Frequencies {
			for draw := 0; draw < 2; draw++ {
				add(fmt.Sprintf("Multiple_Injection_%d", k), attack.Config{
					Scenario:  attack.Multi,
					IDs:       pickIDs(pool, k, draw),
					Frequency: f,
					Start:     2 * p.Window,
					Duration:  8 * p.Window,
				}, "")
			}
		}
	}

	// Row 6 — Weak injection: the attacker is confined to a compromised
	// ECU's transmit filter (we compromise the BCM) and injects one
	// fixed legal ID per campaign — the paper observes this scenario's
	// detection result matches single injection.
	bcm, ok := profile.FindECU("BCM")
	if !ok {
		return Table1Result{}, fmt.Errorf("experiments: BCM not in profile")
	}
	filter := bcm.IDs()
	for _, f := range Table1Frequencies {
		for draw := 0; draw < 2; draw++ {
			add("Weak Injection", attack.Config{
				Scenario:  attack.Weak,
				IDs:       []can.ID{filter[(draw*13+5)%len(filter)]},
				Filter:    filter,
				Frequency: f,
				Start:     2 * p.Window,
				Duration:  8 * p.Window,
			}, "BCM")
		}
	}

	outcomes := make([]scenarioOutcome, len(jobs))
	err = forEach(p.workers(), len(jobs), func(i int) error {
		o, err := runScenario(p, profile, tmpl, ix, jobs[i].cfg, jobs[i].weakECU, jobs[i].runSeed)
		if err != nil {
			return err
		}
		outcomes[i] = o
		return nil
	})
	if err != nil {
		return Table1Result{}, err
	}

	var result Table1Result
	for _, label := range table1RowOrder {
		row := Table1Row{Scenario: label}
		drSum := 0.0
		hits, trials := 0, 0
		hasInfer := false
		for i, job := range jobs {
			if job.label != label {
				continue
			}
			o := outcomes[i]
			row.Runs++
			drSum += o.dr
			hits += o.hits
			trials += o.trials
			hasInfer = hasInfer || o.hasInfer
			row.Detail = append(row.Detail, RunOutcome{
				Frequency:     o.freq,
				DetectionRate: o.dr,
				Hits:          o.hits,
				Trials:        o.trials,
				IDs:           o.ids,
			})
		}
		row.DetectionRate = drSum / float64(row.Runs)
		if hasInfer {
			row.InferAccuracy = metrics.HitRate(hits, trials)
		} else {
			row.InferAccuracy = math.NaN()
		}
		result.Rows = append(result.Rows, row)
	}
	return result, nil
}

// Table renders Table I with the paper's reported numbers alongside.
func (r Table1Result) Table() string {
	var sb strings.Builder
	sb.WriteString("Table I — detection rate and inferring accuracy per attack scenario\n")
	sb.WriteString("scenario               Dr(ours)  Dr(paper)  Infer(ours)  Infer(paper)  runs\n")
	for _, row := range r.Rows {
		paper, _ := PaperValues(row.Scenario)
		inferOurs, inferPaper := "--", "--"
		if !math.IsNaN(row.InferAccuracy) {
			inferOurs = fmt.Sprintf("%.1f%%", 100*row.InferAccuracy)
		}
		if !math.IsNaN(paper[1]) {
			inferPaper = fmt.Sprintf("%.1f%%", 100*paper[1])
		}
		fmt.Fprintf(&sb, "%-22s %7.1f%%  %8.1f%%  %11s  %12s  %4d\n",
			row.Scenario, 100*row.DetectionRate, 100*paper[0], inferOurs, inferPaper, row.Runs)
	}
	return sb.String()
}

// Row returns the row with the given label.
func (r Table1Result) Row(scenario string) (Table1Row, bool) {
	for _, row := range r.Rows {
		if row.Scenario == scenario {
			return row, true
		}
	}
	return Table1Row{}, false
}
