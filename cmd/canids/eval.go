package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"canids/internal/core"
	"canids/internal/dataset"
	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/experiments"
	"canids/internal/gateway"
	"canids/internal/trace"
)

// evalOptions carries the -eval mode configuration.
type evalOptions struct {
	target  string        // capture file or directory
	split   float64       // training fraction cap for prefix-trained files
	dialect string        // dialect override; "" sniffs per file
	window  time.Duration // detection window
	alpha   float64       // threshold multiplier
	logger  *slog.Logger
}

// evalScan is the first streaming pass over one capture: row accounting
// plus the attack-free-prefix geometry the training plan needs.
type evalScan struct {
	path        string
	name        string
	dialect     dataset.Dialect
	stats       dataset.Stats
	firstAttack int // imported-record index of the first injected row; -1 if none
}

// evalRow is one evaluated capture's scores for the transcript table.
type evalRow struct {
	scan       *evalScan
	train      int // imported records consumed for training
	evaluated  int // imported records streamed through the engine
	attacks    int // injected records in the evaluated remainder
	detected   int // injected records covered by an alert window
	alerts     int
	falseAlarm int // alerted windows with no injected frame
	cleanWins  int // evaluated windows with no injected frame
	latMean    time.Duration
	latMax     time.Duration
	latN       int
}

// runEval trains on the attack-free part of real-dialect captures and
// streams the rest through the engine, printing a deterministic
// detection/FP/latency table next to Table1. Everything on stdout is a
// pure function of the capture bytes and the flags, so the engine's
// bit-identical-alerts contract extends to imported data (pinned by
// TestEvalShardDeterminism and the ci.sh leg).
func runEval(opts evalOptions, stdout io.Writer) error {
	paths, err := evalTargets(opts.target)
	if err != nil {
		return err
	}
	var override dataset.Dialect
	if opts.dialect != "" {
		if override, err = dataset.ParseDialect(opts.dialect); err != nil {
			return err
		}
	}

	// Pass 1: dialect + row accounting + attack geometry per capture.
	scans := make([]*evalScan, 0, len(paths))
	for _, p := range paths {
		sc, err := scanCapture(p, override)
		if err != nil {
			return err
		}
		scans = append(scans, sc)
	}

	// Training plan: captures that are labeled and entirely attack-free
	// (or named as such, the convention of the real datasets) train
	// wholly; everything else evaluates wholly. Without such a capture,
	// each file trains on its own attack-free prefix, capped at the
	// -eval-split fraction.
	train := make(map[*evalScan]int, len(scans))
	haveClean := false
	for _, sc := range scans {
		if isAttackFree(sc) {
			train[sc] = sc.stats.Imported
			haveClean = true
		}
	}
	if !haveClean {
		for _, sc := range scans {
			prefix := sc.stats.Imported
			if sc.firstAttack >= 0 {
				prefix = sc.firstAttack
			}
			cap := int(opts.split * float64(sc.stats.Imported))
			if prefix > cap {
				prefix = cap
			}
			train[sc] = prefix
		}
	}
	totalTrain := 0
	for _, n := range train {
		totalTrain += n
	}
	if totalTrain == 0 {
		return fmt.Errorf("no attack-free training rows in %s (labeled clean capture or clean prefix required)", opts.target)
	}

	fmt.Fprintf(stdout, "dataset eval: %d capture(s) from %s (split %.2f, window %v, alpha %g)\n",
		len(scans), opts.target, opts.split, opts.window, opts.alpha)

	// Pass 2a: re-stream the training rows and build the model.
	cfg := core.DefaultConfig()
	cfg.Window = opts.window
	cfg.Alpha = opts.alpha
	var windows []trace.Trace
	for _, sc := range scans {
		n := train[sc]
		if n == 0 {
			continue
		}
		buf, err := readPrefix(sc, n)
		if err != nil {
			return err
		}
		ws := buf.Windows(opts.window, false)
		windows = append(windows, ws...)
		mode := "prefix"
		if n == sc.stats.Imported {
			mode = "whole capture"
		}
		fmt.Fprintf(stdout, "training: %s: %d attack-free rows, %d windows (%s)\n", sc.name, n, len(ws), mode)
	}
	tmpl, err := core.BuildTemplate(windows, cfg.Width, cfg.MinFrames)
	if err != nil {
		return fmt.Errorf("training on %s: %w", opts.target, err)
	}
	learner, err := gateway.NewRateLearner(1)
	if err != nil {
		return err
	}
	for _, w := range windows {
		learner.ObserveWindow(w)
	}
	budgets, err := learner.Budgets()
	if err != nil {
		return fmt.Errorf("gateway budgets: %w", err)
	}
	fmt.Fprintf(stdout, "model: template over %d windows, gateway budgets for %d IDs\n", len(windows), len(budgets))

	// Pass 2b: stream each capture's remainder through the engine.
	var rows []*evalRow
	for _, sc := range scans {
		n := train[sc]
		if n >= sc.stats.Imported {
			continue // consumed entirely by training
		}
		row, err := evalCapture(sc, n, cfg, tmpl, opts)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return fmt.Errorf("every capture in %s was consumed by training; nothing to evaluate", opts.target)
	}

	fmt.Fprintf(stdout, "\nDataset evaluation — detection / false positives per capture (cf. Table I)\n\n")
	fmt.Fprint(stdout, experiments.RenderTable(
		[]string{"capture", "dialect", "rows", "train", "eval", "attacks", "alerts", "Dr", "FPR", "lat(mean)", "lat(max)"},
		evalCells(rows),
	))
	fmt.Fprintln(stdout)
	for _, r := range rows {
		st := r.scan.stats
		fmt.Fprintf(stdout, "accounting %s: rows=%d imported=%d skipped=%d repaired=%d late=%d train=%d eval=%d attacks=%d detected=%d missed=%d\n",
			r.scan.name, st.Rows, st.Imported, st.Skipped, st.Repaired, st.Late,
			r.train, r.evaluated, r.attacks, r.detected, r.attacks-r.detected)
		if st.Imported+st.Skipped != st.Rows {
			return fmt.Errorf("%s: accounting broken: %d imported + %d skipped != %d rows", r.scan.name, st.Imported, st.Skipped, st.Rows)
		}
		if r.train+r.evaluated != st.Imported {
			return fmt.Errorf("%s: split broken: %d train + %d eval != %d imported", r.scan.name, r.train, r.evaluated, st.Imported)
		}
	}
	return nil
}

// evalCells renders the per-capture score rows. Unlabeled dialects
// (OTIDS) have no ground truth: Dr and FPR print "--", like the paper's
// table does for inapplicable cells.
func evalCells(rows []*evalRow) [][]string {
	cells := make([][]string, 0, len(rows))
	for _, r := range rows {
		dr, fpr := "--", "--"
		if r.scan.stats.Labeled {
			if r.attacks > 0 {
				dr = fmt.Sprintf("%.1f%%", 100*float64(r.detected)/float64(r.attacks))
			}
			if r.cleanWins > 0 {
				fpr = fmt.Sprintf("%.1f%%", 100*float64(r.falseAlarm)/float64(r.cleanWins))
			}
		}
		latMean, latMax := "--", "--"
		if r.latN > 0 {
			latMean = (r.latMean / time.Duration(r.latN)).Truncate(time.Microsecond).String()
			latMax = r.latMax.Truncate(time.Microsecond).String()
		}
		cells = append(cells, []string{
			r.scan.name,
			r.scan.dialect.String(),
			fmt.Sprint(r.scan.stats.Rows),
			fmt.Sprint(r.train),
			fmt.Sprint(r.evaluated),
			fmt.Sprint(r.attacks),
			fmt.Sprint(r.alerts),
			dr,
			fpr,
			latMean,
			latMax,
		})
	}
	return cells
}

// evalTargets resolves -eval's operand: a file evaluates alone, a
// directory evaluates every regular file in it, in name order.
func evalTargets(target string) ([]string, error) {
	info, err := os.Stat(target)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{target}, nil
	}
	entries, err := os.ReadDir(target)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			paths = append(paths, filepath.Join(target, e.Name()))
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("no capture files in %s", target)
	}
	return paths, nil
}

// openCapture builds the importer for one capture, sniffing the dialect
// unless overridden.
func openCapture(sc *evalScan, override dataset.Dialect) (*os.File, *dataset.Importer, error) {
	f, err := os.Open(sc.path)
	if err != nil {
		return nil, nil, err
	}
	var im *dataset.Importer
	if override != dataset.DialectUnknown {
		im, err = dataset.NewImporter(override, f, dataset.Options{})
	} else {
		im, err = dataset.Open(f, dataset.Options{})
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", sc.path, err)
	}
	return f, im, nil
}

// scanCapture is pass 1: dialect, exact row accounting, first-attack
// index.
func scanCapture(path string, override dataset.Dialect) (*evalScan, error) {
	sc := &evalScan{path: path, name: filepath.Base(path), firstAttack: -1}
	f, im, err := openCapture(sc, override)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	idx := 0
	for {
		rec, err := im.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Injected && sc.firstAttack < 0 {
			sc.firstAttack = idx
		}
		idx++
	}
	sc.dialect = im.Dialect()
	sc.stats = im.Stats()
	return sc, nil
}

// isAttackFree reports whether a capture can train wholly: it carries
// ground-truth labels with zero attacks, or is named the way the public
// datasets name their clean captures (attack_free, normal_run, …).
func isAttackFree(sc *evalScan) bool {
	if sc.stats.Attacks > 0 {
		return false
	}
	if sc.stats.Labeled {
		return true
	}
	name := strings.ToLower(sc.name)
	return strings.Contains(name, "free") || strings.Contains(name, "normal") || strings.Contains(name, "clean")
}

// readPrefix re-streams the first n imported records of a capture.
func readPrefix(sc *evalScan, n int) (trace.Trace, error) {
	f, im, err := openCapture(sc, sc.dialect)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make(trace.Trace, 0, n)
	for len(buf) < n {
		rec, err := im.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.path, err)
		}
		buf = append(buf, rec)
	}
	return buf, nil
}

// evalSource forwards the evaluated remainder of an importer to the
// engine while tallying per-window ground truth on the way past. The
// tallies depend only on the record stream.
type evalSource struct {
	im    *dataset.Importer
	row   *evalRow
	tally *evalTally
}

func (s *evalSource) Next() (trace.Record, error) {
	rec, err := s.im.Next()
	if err != nil {
		return rec, err
	}
	s.row.evaluated++
	if rec.Injected {
		s.row.attacks++
	}
	s.tally.observe(rec)
	return rec, nil
}

// evalTally accumulates per-window ground truth keyed by window index
// relative to the first evaluated record — the same anchoring the
// engine's window walk uses, so alert spans land on exact keys.
type evalTally struct {
	window   time.Duration
	t0       time.Duration
	anchored bool
	wins     map[int64]*winTruth
}

type winTruth struct {
	frames   int
	injected []time.Duration // injection times inside the window, in stream order
}

func (t *evalTally) observe(rec trace.Record) {
	if !t.anchored {
		t.t0 = rec.Time
		t.anchored = true
	}
	idx := int64((rec.Time - t.t0) / t.window)
	w := t.wins[idx]
	if w == nil {
		w = &winTruth{}
		t.wins[idx] = w
	}
	w.frames++
	if rec.Injected {
		w.injected = append(w.injected, rec.Time)
	}
}

// evalCapture is pass 2b for one capture: skip the training prefix,
// stream the rest through a freshly trained engine, and score the alert
// stream against the tallied ground truth.
func evalCapture(sc *evalScan, skip int, cfg core.Config, tmpl core.Template, opts evalOptions) (*evalRow, error) {
	f, im, err := openCapture(sc, sc.dialect)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	for i := 0; i < skip; i++ {
		if _, err := im.Next(); err != nil {
			return nil, fmt.Errorf("%s: skipping training prefix: %w", sc.path, err)
		}
	}

	ecfg := engine.DefaultConfig()
	ecfg.Core = cfg
	ecfg.Logger = opts.logger
	eng, err := engine.NewTrained(ecfg, tmpl)
	if err != nil {
		return nil, err
	}
	row := &evalRow{scan: sc, train: skip}
	tally := &evalTally{window: cfg.Window, wins: make(map[int64]*winTruth)}
	src := &evalSource{im: im, row: row, tally: tally}
	var alerts []detect.Alert
	if _, err := eng.Run(context.Background(), src, func(a detect.Alert) {
		alerts = append(alerts, a)
	}); err != nil {
		return nil, fmt.Errorf("%s: engine: %w", sc.path, err)
	}

	// Score: an attack row counts as detected when an alert window
	// covers it; a clean window with an alert is a false alarm; alert
	// latency is the gap from a window's first injected frame to the
	// window close that reveals it.
	row.alerts = len(alerts)
	alerted := make(map[int64]bool, len(alerts))
	for _, a := range alerts {
		idx := int64((a.WindowStart - tally.t0) / tally.window)
		if alerted[idx] {
			continue
		}
		alerted[idx] = true
		w := tally.wins[idx]
		if w == nil || len(w.injected) == 0 {
			continue
		}
		lat := a.WindowEnd - w.injected[0]
		row.latMean += lat
		row.latN++
		if lat > row.latMax {
			row.latMax = lat
		}
	}
	for idx, w := range tally.wins {
		if len(w.injected) == 0 {
			row.cleanWins++
			if alerted[idx] {
				row.falseAlarm++
			}
		} else if alerted[idx] {
			row.detected += len(w.injected)
		}
	}
	return row, nil
}

// runListDialects prints the supported capture dialects, one per line.
func runListDialects(stdout io.Writer) error {
	fmt.Fprintln(stdout, "supported dataset dialects:")
	for _, d := range dataset.Dialects() {
		fmt.Fprintf(stdout, "  %-9s %s\n", d.String(), d.Describe())
	}
	return nil
}
