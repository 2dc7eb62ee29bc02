// Command canids trains the bit-entropy golden template and runs
// intrusion detection over CAN logs.
//
// Train a template from clean captures (candump or csv):
//
//	canids -train -window 1s -o template.json clean1.log clean2.log
//
// Detect over a capture, inferring malicious IDs:
//
//	canids -detect -template template.json -alpha 5 -rank 10 attacked.csv
//
// Watch a stream through the engine with live metrics — either
// a named scenario from the built-in matrix (trains on the matrix's
// clean traffic, then streams the scenario live) or captured log files:
//
//	canids -list-scenarios
//	canids -watch -scenario fusion/idle/SI-100 -baselines
//	canids -watch -template template.json attacked.csv
//
// Close the paper's prevention loop while watching — a gateway
// pre-filter ahead of the engine, alerts feeding inference, inferred IDs
// quarantined so the rest of the attack is dropped mid-stream:
//
//	canids -watch -scenario fusion/idle/SI-100 -prevent -quarantine 30s
//	canids -watch -scenario fusion/idle/FI-500 -prevent -whitelist
//
// Serve a capture that carries several buses with one engine per
// channel:
//
//	canids -watch -template template.json -multibus mixed.log
//
// Persist the trained model as a versioned, checksummed snapshot
// (template + pool + gateway/response policy) and reuse it anywhere a
// mode would otherwise retrain:
//
//	canids -train -save model.snap clean1.log clean2.log
//	canids -watch -scenario fusion/idle/SI-100 -prevent -rate-slack 2 -save model.snap
//	canids -watch -load model.snap attacked.csv
//	canids -detect -load model.snap attacked.csv
//
// Run the long-lived serving daemon — HTTP ingest per bus, live stats
// and alerts, snapshot hot reload at window boundaries, graceful drain:
//
//	canids -serve -addr 127.0.0.1:8080 -load model.snap
//	curl --data-binary @attacked.csv 'http://127.0.0.1:8080/ingest/ms-can?format=csv'
//	curl -X POST --data-binary @model2.snap http://127.0.0.1:8080/admin/reload
//	curl -X POST http://127.0.0.1:8080/admin/shutdown
//
// Serve a whole fleet on a fixed engine pool — vehicles (channels) are
// rendezvous-hashed onto -fleet engines, idle vehicles are torn down
// after -fleet-idle, and per-vehicle ingest quotas shed floods with
// 429; terminate TLS in-process instead of behind a proxy:
//
//	canids -serve -load model.snap -fleet 8 -fleet-idle 5m \
//	    -quota-frames 100000 -quota-window 1m \
//	    -tls-cert server.crt -tls-key server.key
//
// Adapt online while serving — clean live windows re-learn the gateway
// rate budgets and refresh the template, promotions land at window
// boundaries, and checkpoints persist what was learned as version-2
// snapshots that a restart -loads; protect the admin verbs with a
// bearer token:
//
//	canids -serve -load model.snap -adapt -checkpoint ck.snap -admin-token $TOKEN
//	curl http://127.0.0.1:8080/admin/adapt -H "Authorization: Bearer $TOKEN"
//	curl -X POST 'http://127.0.0.1:8080/admin/adapt?action=pause' -H "Authorization: Bearer $TOKEN"
//	canids -serve -load ck.ms-can.snap    # budgets survive the restart
//
// Record an incident while serving, then replay it as a local test
// case — the capture carries the snapshot, the exact per-bus record
// stream, and the alert journal, and the replay must reproduce that
// journal bit for bit; scrape /metrics for Prometheus-format counters:
//
//	canids -serve -load model.snap -record incident
//	curl --data-binary @attacked.csv 'http://127.0.0.1:8080/ingest/ms-can?format=csv'
//	curl http://127.0.0.1:8080/metrics
//	curl -X POST http://127.0.0.1:8080/admin/shutdown
//	canids -replay incident
//
// When the input carries ground truth (csv, or a matrix scenario),
// detection, inference and prevention (attack frames blocked vs
// legitimate collateral drops) are also scored.
package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"canids/internal/baseline"
	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/dataset"
	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/engine/scenario"
	"canids/internal/fault"
	"canids/internal/gateway"
	"canids/internal/infer"
	"canids/internal/metrics"
	"canids/internal/response"
	"canids/internal/server"
	"canids/internal/store"
	"canids/internal/trace"
	"canids/internal/vehicle"
)

// templateFile is the JSON document canids persists: the golden template
// plus the legal ID pool observed during training (used by inference).
type templateFile struct {
	Template core.Template `json:"template"`
	Pool     []can.ID      `json:"pool"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "canids:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("canids", flag.ContinueOnError)
	var (
		train    = fs.Bool("train", false, "build a golden template from clean logs")
		detect   = fs.Bool("detect", false, "run detection over logs")
		watch    = fs.Bool("watch", false, "stream logs or a scenario through the engine")
		serve    = fs.Bool("serve", false, "run the HTTP serving daemon over a -load snapshot")
		list     = fs.Bool("list-scenarios", false, "print the scenario-matrix catalogue")
		tmplPath = fs.String("template", "template.json", "template file path")
		loadPath = fs.String("load", "", "model snapshot to serve/detect/watch with (skips retraining; persisted gateway/response policy wins over the policy flags)")
		savePath = fs.String("save", "", "persist the trained model as a snapshot (with -train, or -watch -scenario)")
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address for -serve")
		window   = fs.Duration("window", time.Second, "detection window")
		alpha    = fs.Float64("alpha", 5, "threshold multiplier α (paper range [3,10])")
		rank     = fs.Int("rank", infer.DefaultRank, "inference candidate set size")
		out      = fs.String("o", "", "output file for -train (default: -template path)")

		scenarioName = fs.String("scenario", "", "named scenario from the matrix (see -list-scenarios)")
		seed         = fs.Int64("seed", 1, "scenario-matrix base seed")
		duration     = fs.Duration("duration", 0, "override scenario duration")
		baselines    = fs.Bool("baselines", false, "run the Müter and Song baselines alongside (scenario mode)")
		metricsEvery = fs.Duration("metrics", 2*time.Second, "live metrics interval for -watch (0 disables)")

		logLevel  = fs.String("log-level", "info", "structured-log threshold on stderr: debug, info, warn or error")
		logFormat = fs.String("log-format", "text", "structured-log encoding on stderr: text or json")

		replayDir  = fs.String("replay", "", "re-run a -record capture directory and reproduce its alert journal bit-for-bit")
		recordDir  = fs.String("record", "", "with -serve, capture the post-demux record stream + snapshot into this directory for -replay")
		journalDir = fs.String("journal", "", "with -serve, append alerts to rotating per-bus binary journals under this directory (default <record>/journal with -record)")
		adaptOn    = fs.Bool("adapt", false, "with -serve, learn budgets/template online from live clean windows")
		adaptEvery = fs.Int("adapt-every", 0, "with -adapt, promotion cadence in clean windows, also the warm-up before the first promotion (0 = defaults)")
		checkpoint = fs.String("checkpoint", "", "with -adapt, persist adapted models as v2 snapshots to this base path (per bus: model.<bus>.snap)")
		adminToken = fs.String("admin-token", os.Getenv("CANIDS_ADMIN_TOKEN"), "with -serve, require this bearer token on /admin/* (default $CANIDS_ADMIN_TOKEN; empty = open)")
		maxBody    = fs.Int64("max-body", 256<<20, "with -serve, max ingest request body bytes (413 beyond; 0 = unlimited)")
		ingestTO   = fs.Duration("ingest-timeout", time.Minute, "with -serve, per-read deadline on ingest bodies (408 on stall; 0 disables)")
		faultSpec  = fs.String("faults", "", "with -serve, arm deterministic fault injection for chaos drills (spec: point[scope]:kind@N[xM];...)")
		fleet      = fs.Int("fleet", 0, "with -serve, share this many engines across all vehicles (rendezvous hashing; 0 = one engine per bus)")
		fleetIdle  = fs.Duration("fleet-idle", 0, "with -fleet, tear down a vehicle's lane after this idle stream time (0 = never)")
		quotaN     = fs.Int("quota-frames", 0, "with -serve, per-vehicle ingest quota in frames per -quota-window (0 = unlimited)")
		quotaW     = fs.Duration("quota-window", time.Minute, "with -quota-frames, the quota accounting window (stream time)")
		tlsCert    = fs.String("tls-cert", "", "with -serve, terminate TLS with this PEM certificate (needs -tls-key)")
		tlsKey     = fs.String("tls-key", "", "with -serve, the PEM private key for -tls-cert")

		prevent    = fs.Bool("prevent", false, "close the loop: gateway pre-filter + alert-driven blocking")
		whitelist  = fs.Bool("whitelist", false, "with -prevent, also drop IDs outside the legal pool")
		quarantine = fs.Duration("quarantine", 30*time.Second, "with -prevent, block duration per alert (0 = forever)")
		blockTop   = fs.Int("block-top", 1, "with -prevent, how many top suspects to block per alert")
		rateSlack  = fs.Float64("rate-slack", 0, "with -prevent in scenario mode, per-ID rate-limit slack (0 disables)")
		minScore   = fs.Float64("min-score", 0, "with -prevent, ignore alerts below this score (no knee-jerk blocks)")
		multibus   = fs.Bool("multibus", false, "serve one engine per bus channel (supervisor)")

		evalPath     = fs.String("eval", "", "evaluate a real-dialect capture file or directory: train on the attack-free part, stream the rest through the engine")
		evalSplit    = fs.Float64("eval-split", 0.3, "with -eval, cap on the training-prefix fraction per capture")
		evalDialect  = fs.String("eval-dialect", "", "with -eval, force the capture dialect instead of sniffing: "+dataset.SupportedNames())
		listDialects = fs.Bool("list-dialects", false, "print the supported dataset dialects")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	files := fs.Args()
	modes := 0
	for _, m := range []bool{*train, *detect, *watch, *serve, *list, *replayDir != "", *evalPath != "", *listDialects} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("exactly one of -train, -detect, -watch, -serve, -replay, -eval, -list-dialects or -list-scenarios is required")
	}
	if *evalPath == "" {
		explicit := make(map[string]bool)
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		for _, name := range []string{"eval-split", "eval-dialect"} {
			if explicit[name] {
				return fmt.Errorf("-%s needs -eval", name)
			}
		}
	}
	if *loadPath != "" && *savePath != "" {
		return fmt.Errorf("-load and -save are exclusive: nothing is trained when a snapshot is loaded")
	}
	if *loadPath != "" {
		// The snapshot is the model: its core config (window, alpha, …)
		// and template win, so explicitly giving those flags would be
		// silently ignored — reject instead, like -rate-slack with -load.
		explicit := make(map[string]bool)
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		for _, name := range []string{"alpha", "window", "template"} {
			if explicit[name] {
				return fmt.Errorf("-%s is baked into the snapshot; with -load the model's value wins (retrain to retune)", name)
			}
		}
	}
	if *savePath != "" && !*train && !(*watch && *scenarioName != "") {
		return fmt.Errorf("-save needs a mode that trains: -train, or -watch -scenario")
	}
	if !*serve {
		explicit := make(map[string]bool)
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		for _, name := range []string{"adapt", "adapt-every", "checkpoint", "admin-token", "max-body", "ingest-timeout", "faults", "record", "journal", "fleet", "fleet-idle", "quota-frames", "quota-window", "tls-cert", "tls-key"} {
			if explicit[name] {
				return fmt.Errorf("-%s needs -serve", name)
			}
		}
	}

	switch {
	case *listDialects:
		return runListDialects(stdout)
	case *evalPath != "":
		if len(files) != 0 {
			return fmt.Errorf("-eval takes no positional files; pass the capture (or directory) to -eval itself")
		}
		if *evalSplit <= 0 || *evalSplit >= 1 {
			return fmt.Errorf("-eval-split must be in (0,1), got %v", *evalSplit)
		}
		return runEval(evalOptions{
			target:  *evalPath,
			split:   *evalSplit,
			dialect: *evalDialect,
			window:  *window,
			alpha:   *alpha,
			logger:  logger,
		}, stdout)
	case *list:
		return runList(*seed, stdout)
	case *replayDir != "":
		if len(files) != 0 {
			return fmt.Errorf("-replay takes no input files; the capture directory carries the stream")
		}
		return runReplay(*replayDir, logger, stdout)
	case *serve:
		if *loadPath == "" {
			return fmt.Errorf("-serve needs -load <snapshot> (train once with -save, serve forever)")
		}
		if len(files) != 0 {
			return fmt.Errorf("-serve takes no input files; ingest over HTTP")
		}
		if !*adaptOn {
			for flag, set := range map[string]bool{
				"-adapt-every": *adaptEvery != 0,
				"-checkpoint":  *checkpoint != "",
			} {
				if set {
					return fmt.Errorf("%s needs -adapt", flag)
				}
			}
		}
		if *maxBody < 0 {
			return fmt.Errorf("-max-body must be >= 0, got %d", *maxBody)
		}
		if *ingestTO < 0 {
			return fmt.Errorf("-ingest-timeout must be >= 0, got %v", *ingestTO)
		}
		if *fleet < 0 {
			return fmt.Errorf("-fleet must be >= 0, got %d", *fleet)
		}
		if *fleet == 0 && *fleetIdle != 0 {
			return fmt.Errorf("-fleet-idle needs -fleet")
		}
		if *quotaN < 0 {
			return fmt.Errorf("-quota-frames must be >= 0, got %d", *quotaN)
		}
		if *quotaN > 0 && *quotaW <= 0 {
			return fmt.Errorf("-quota-window must be positive with -quota-frames, got %v", *quotaW)
		}
		if (*tlsCert == "") != (*tlsKey == "") {
			return fmt.Errorf("-tls-cert and -tls-key come as a pair: both or neither")
		}
		if *journalDir == "" && *recordDir != "" {
			// A capture without an alert journal has nothing for -replay
			// to diff against; default it into the capture directory.
			*journalDir = filepath.Join(*recordDir, "journal")
		}
		return runServe(serveOptions{
			addr:          *addr,
			loadPath:      *loadPath,
			adapt:         *adaptOn,
			adaptEvery:    *adaptEvery,
			checkpoint:    *checkpoint,
			adminToken:    *adminToken,
			maxBody:       *maxBody,
			ingestTimeout: *ingestTO,
			faults:        *faultSpec,
			record:        *recordDir,
			journal:       *journalDir,
			fleet:         *fleet,
			fleetIdle:     *fleetIdle,
			quotaFrames:   *quotaN,
			quotaWindow:   *quotaW,
			tlsCert:       *tlsCert,
			tlsKey:        *tlsKey,
			logger:        logger,
		}, stdout)
	case *watch:
		return runWatch(watchOptions{
			files:        files,
			tmplPath:     *tmplPath,
			loadPath:     *loadPath,
			savePath:     *savePath,
			window:       *window,
			alpha:        *alpha,
			rank:         *rank,
			scenarioName: *scenarioName,
			seed:         *seed,
			duration:     *duration,
			baselines:    *baselines,
			metricsEvery: *metricsEvery,
			prevent:      *prevent,
			whitelist:    *whitelist,
			quarantine:   *quarantine,
			blockTop:     *blockTop,
			rateSlack:    *rateSlack,
			minScore:     *minScore,
			multibus:     *multibus,
			logger:       logger,
		}, stdout)
	case *train:
		if len(files) == 0 {
			return fmt.Errorf("no input logs given")
		}
		dest := *out
		if dest == "" {
			dest = *tmplPath
		}
		return runTrain(files, *window, *alpha, dest, *savePath, stdout)
	default:
		if len(files) == 0 {
			return fmt.Errorf("no input logs given")
		}
		return runDetect(files, *tmplPath, *loadPath, *window, *alpha, *rank, stdout)
	}
}

// buildLogger turns the -log-level/-log-format flags into the process
// logger. Structured logs go to stderr; stdout stays reserved for the
// mode transcripts that scripts (and ci.sh) parse.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level must be debug, info, warn or error, got %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format must be text or json, got %q", format)
	}
}

// runList prints the scenario catalogue.
func runList(seed int64, stdout io.Writer) error {
	specs := scenario.Matrix(seed)
	fmt.Fprintf(stdout, "%d scenarios (base seed %d):\n", len(specs), seed)
	for _, s := range specs {
		kind := "clean"
		if !s.Clean() {
			kind = fmt.Sprintf("%s @ %.0f Hz", s.Campaign.Attack, s.Campaign.Frequency)
		}
		fmt.Fprintf(stdout, "  %-26s %v  %s\n", s.Name, s.Duration, kind)
	}
	return nil
}

// readLog loads a whole capture, picking the format by extension.
func readLog(path string) (trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec, err := trace.NewDecoder(trace.FormatForPath(path), f)
	if err != nil {
		return nil, err
	}
	return trace.ReadAll(dec)
}

func runTrain(files []string, window time.Duration, alpha float64, dest, savePath string, stdout io.Writer) error {
	var windows []trace.Trace
	poolSet := make(map[can.ID]bool)
	for _, path := range files {
		tr, err := readLog(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		tr.Sort()
		for _, id := range tr.IDs() {
			poolSet[id] = true
		}
		windows = append(windows, tr.Windows(window, false)...)
	}
	cfg := core.DefaultConfig()
	cfg.Window = window
	cfg.Alpha = alpha
	tmpl, err := core.BuildTemplate(windows, cfg.Width, cfg.MinFrames)
	if err != nil {
		return err
	}
	pool := make([]can.ID, 0, len(poolSet))
	for id := range poolSet {
		pool = append(pool, id)
	}
	tf := templateFile{Template: tmpl, Pool: pool}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tf); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trained template from %d windows (%d IDs); max per-bit range %.3e\nwritten to %s\n",
		tmpl.Windows, len(pool), tmpl.MaxRange(), dest)
	if savePath != "" {
		snap, err := store.New(cfg, tmpl, pool)
		if err != nil {
			return err
		}
		if err := store.Save(savePath, snap); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "snapshot written to %s\n", savePath)
	}
	return nil
}

// loadModel restores a detector-ready model either from a store
// snapshot (-load; the snapshot's own core config wins, so serving and
// offline runs agree bit for bit) or from the legacy template JSON.
func loadModel(tmplPath, loadPath string, window time.Duration, alpha float64) (core.Config, core.Template, []can.ID, *store.Snapshot, error) {
	if loadPath != "" {
		snap, err := store.Load(loadPath)
		if err != nil {
			return core.Config{}, core.Template{}, nil, nil, err
		}
		return snap.Core, snap.Template, snap.Pool, snap, nil
	}
	cfg := core.DefaultConfig()
	cfg.Window = window
	cfg.Alpha = alpha
	raw, err := os.ReadFile(tmplPath)
	if err != nil {
		return core.Config{}, core.Template{}, nil, nil, err
	}
	var tf templateFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return core.Config{}, core.Template{}, nil, nil, fmt.Errorf("%s: %w", tmplPath, err)
	}
	return cfg, tf.Template, tf.Pool, nil, nil
}

func runDetect(files []string, tmplPath, loadPath string, window time.Duration, alpha float64, rank int, stdout io.Writer) error {
	cfg, tmpl, pool, _, err := loadModel(tmplPath, loadPath, window, alpha)
	if err != nil {
		return err
	}
	d, err := core.New(cfg)
	if err != nil {
		return err
	}
	if err := d.SetTemplate(tmpl); err != nil {
		return err
	}
	tf := templateFile{Template: tmpl, Pool: pool}

	for _, path := range files {
		tr, err := readLog(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		tr.Sort()
		d.Reset()
		var alerts []detect.Alert
		for _, r := range tr {
			alerts = append(alerts, d.Observe(r)...)
		}
		alerts = append(alerts, d.Flush()...)

		fmt.Fprintf(stdout, "%s: %d frames, %d alerts\n", path, len(tr), len(alerts))
		for _, a := range alerts {
			fmt.Fprintf(stdout, "  ALERT %s\n", a)
			if len(tf.Pool) > 0 {
				res, err := infer.Rank(a, tf.Pool, can.StandardIDBits, rank)
				if err == nil {
					fmt.Fprintf(stdout, "        suspected IDs: %s\n", formatIDs(res.Candidates))
				}
			}
		}
		if tr.CountInjected() > 0 {
			dr := metrics.DetectionRate(tr, alerts)
			fmt.Fprintf(stdout, "  ground truth: %d injected frames, detection rate %.1f%%\n",
				tr.CountInjected(), 100*dr)
		}
	}
	return nil
}

func formatIDs(ids []can.ID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id.String()
	}
	return strings.Join(parts, " ")
}

// watchOptions collects the -watch flags.
type watchOptions struct {
	files        []string
	tmplPath     string
	loadPath     string
	savePath     string
	window       time.Duration
	alpha        float64
	rank         int
	scenarioName string
	seed         int64
	duration     time.Duration
	baselines    bool
	metricsEvery time.Duration
	prevent      bool
	whitelist    bool
	quarantine   time.Duration
	blockTop     int
	rateSlack    float64
	minScore     float64
	multibus     bool
	logger       *slog.Logger
}

func (o watchOptions) validate() error {
	if !o.prevent {
		for flag, set := range map[string]bool{
			"-whitelist":  o.whitelist,
			"-rate-slack": o.rateSlack != 0,
			"-min-score":  o.minScore != 0,
		} {
			if set {
				return fmt.Errorf("%s needs -prevent", flag)
			}
		}
	}
	if o.blockTop <= 0 {
		return fmt.Errorf("-block-top must be positive, got %d", o.blockTop)
	}
	if o.rateSlack > 0 && o.scenarioName == "" {
		return fmt.Errorf("-rate-slack needs -scenario (rate budgets learn from the matrix's clean traffic)")
	}
	if o.rateSlack > 0 && o.loadPath != "" {
		return fmt.Errorf("-rate-slack retrains budgets; with -load they come from the snapshot")
	}
	return nil
}

// engineParts is everything needed to build one engine — one per run,
// or one per bus channel under -multibus. Each build gets private
// baseline detectors and, with -prevent, a private gateway + responder
// (per-bus policy state: each bus has its own rate windows and
// blocklist).
type engineParts struct {
	cfg     engine.Config
	tmpl    core.Template
	pool    []can.ID              // legal / inference pool; may be empty for bare captures
	windows []trace.Trace         // clean training windows (scenario mode only)
	gwPol   *store.GatewayPolicy  // persisted gateway policy (-load): budgets injected, whitelist restored
	respPol *store.ResponsePolicy // persisted response policy (-load): replaces the policy flags
	opts    watchOptions

	// responders collects what build created, keyed by channel, for the
	// end-of-run prevention report. Only the goroutine driving the
	// supervisor demux (or the single-engine caller) writes it.
	responders map[string]*response.Responder
	gateways   map[string]*gateway.Gateway
}

func (p *engineParts) build(channel string) (*engine.Engine, error) {
	cfg := p.cfg // value copy; Baselines/Gateway/Responder set per build
	if p.opts.baselines {
		m, err := baseline.NewMuter(baseline.DefaultMuterConfig())
		if err != nil {
			return nil, err
		}
		s, err := baseline.NewSong(baseline.DefaultSongConfig())
		if err != nil {
			return nil, err
		}
		for _, d := range []detect.Detector{m, s} {
			if err := d.Train(p.windows); err != nil {
				return nil, fmt.Errorf("train %s: %w", d.Name(), err)
			}
		}
		cfg.Baselines = []detect.Detector{m, s}
	}
	if p.opts.prevent {
		gw, resp, err := p.buildPolicy()
		if err != nil {
			return nil, err
		}
		cfg.Gateway, cfg.Responder = gw, resp
		p.responders[channel] = resp
		p.gateways[channel] = gw
	}
	return engine.NewTrained(cfg, p.tmpl)
}

// buildPolicy constructs one gateway + responder pair — the single
// source of truth for how flags and persisted snapshot policy combine,
// shared by every engine build and by the -save snapshot export (so
// what is persisted is exactly what the run enforces).
func (p *engineParts) buildPolicy() (*gateway.Gateway, *response.Responder, error) {
	if len(p.pool) == 0 {
		return nil, nil, fmt.Errorf("-prevent needs a legal ID pool (train with a pool, or use -scenario)")
	}
	gwCfg := gateway.Config{RateWindow: p.cfg.Core.Window, RateSlack: p.opts.rateSlack}
	if p.gwPol != nil && len(p.gwPol.Budgets) > 0 {
		// Budgets restored from a snapshot: enforce them as-is; no
		// clean traffic needed.
		gwCfg.Budgets = p.gwPol.Budgets
		gwCfg.RateWindow = p.gwPol.RateWindow
		gwCfg.RateSlack = p.gwPol.RateSlack
	}
	if p.gwPol != nil && len(p.gwPol.Legal) > 0 {
		// The snapshot was trained with a whitelist; restore it, so a
		// -load replay enforces the model it persisted.
		gwCfg.Legal = p.gwPol.Legal
	} else if p.opts.whitelist {
		gwCfg.Legal = p.pool
	}
	gw, err := gateway.New(gwCfg)
	if err != nil {
		return nil, nil, err
	}
	if p.opts.rateSlack > 0 && gwCfg.Budgets == nil {
		if err := gw.LearnRates(p.windows); err != nil {
			return nil, nil, err
		}
	}
	respCfg := response.DefaultConfig(p.pool)
	if p.respPol != nil {
		// Persisted response policy wins over the flags, like the
		// serve daemon: the snapshot is the model.
		respCfg.Rank = p.respPol.Rank
		respCfg.BlockTop = p.respPol.BlockTop
		respCfg.Quarantine = p.respPol.Quarantine
		respCfg.MinScore = p.respPol.MinScore
	} else {
		respCfg.Rank = p.opts.rank
		respCfg.BlockTop = p.opts.blockTop
		respCfg.Quarantine = p.opts.quarantine
		respCfg.MinScore = p.opts.minScore
	}
	resp, err := response.New(gw, respCfg)
	if err != nil {
		return nil, nil, err
	}
	return gw, resp, nil
}

// runWatch streams a scenario or log files through the engine,
// printing alerts as the engine releases them and a metrics line
// on a fixed wall-clock cadence.
func runWatch(opts watchOptions, stdout io.Writer) error {
	if err := opts.validate(); err != nil {
		return err
	}
	cfg := engine.DefaultConfig()
	cfg.Core.Window = opts.window
	cfg.Core.Alpha = opts.alpha
	cfg.Logger = opts.logger

	if opts.scenarioName != "" {
		return watchScenario(opts, cfg, stdout)
	}
	if len(opts.files) == 0 {
		return fmt.Errorf("-watch needs log files or -scenario")
	}
	if opts.baselines {
		return fmt.Errorf("-baselines needs -scenario (baselines train on the matrix's clean traffic)")
	}
	coreCfg, tmpl, pool, snap, err := loadModel(opts.tmplPath, opts.loadPath, opts.window, opts.alpha)
	if err != nil {
		return err
	}
	cfg.Core = coreCfg
	parts := newEngineParts(cfg, tmpl, pool, nil, opts)
	if snap != nil {
		parts.gwPol = snap.Gateway
		parts.respPol = snap.Response
	}
	for _, path := range opts.files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		src, err := engine.NewLogSource(f, trace.FormatForPath(path))
		if err != nil {
			f.Close()
			return err
		}
		fmt.Fprintf(stdout, "== %s\n", path)
		// CSV and binary captures carry ground truth; tally it in
		// passing so the stream is scored like -detect would.
		var injected trace.Trace
		err = watchStream(parts, teeInjected{src: src, injected: &injected}, &injected, stdout)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func newEngineParts(cfg engine.Config, tmpl core.Template, pool []can.ID,
	windows []trace.Trace, opts watchOptions) *engineParts {
	return &engineParts{
		cfg: cfg, tmpl: tmpl, pool: pool, windows: windows, opts: opts,
		responders: make(map[string]*response.Responder),
		gateways:   make(map[string]*gateway.Gateway),
	}
}

// watchScenario trains on the matrix's clean traffic for the scenario's
// profile, then streams the scenario live (simulation goroutine →
// bounded channel → engine).
func watchScenario(opts watchOptions, cfg engine.Config, stdout io.Writer) error {
	specs := scenario.Matrix(opts.seed)
	spec, ok := scenario.Find(specs, opts.scenarioName)
	if !ok {
		return fmt.Errorf("unknown scenario %q (try -list-scenarios)", opts.scenarioName)
	}
	if opts.duration > 0 {
		spec.Duration = opts.duration
	}

	var (
		tmpl    core.Template
		pool    []can.ID
		windows []trace.Trace
		gwPol   *store.GatewayPolicy
		respPol *store.ResponsePolicy
		origin  string
	)
	if opts.loadPath != "" {
		// Persisted model: no retraining. The baselines are not part of
		// a snapshot, so they still train on the matrix's clean traffic.
		snap, err := store.Load(opts.loadPath)
		if err != nil {
			return err
		}
		cfg.Core = snap.Core
		tmpl = snap.Template
		gwPol = snap.Gateway
		respPol = snap.Response
		if pool = snap.Pool; len(pool) == 0 {
			pool = scenarioPool(spec)
		}
		if opts.baselines {
			if windows, err = scenario.TrainingWindows(specs, spec.Profile, cfg.Core.Window); err != nil {
				return err
			}
		}
		origin = fmt.Sprintf("model from %s (%d training windows)", opts.loadPath, tmpl.Windows)
	} else {
		var err error
		windows, err = scenario.TrainingWindows(specs, spec.Profile, cfg.Core.Window)
		if err != nil {
			return err
		}
		tmpl, err = core.BuildTemplate(windows, cfg.Core.Width, cfg.Core.MinFrames)
		if err != nil {
			return err
		}
		pool = scenarioPool(spec)
		origin = fmt.Sprintf("template from %d clean windows", tmpl.Windows)
	}
	parts := newEngineParts(cfg, tmpl, pool, windows, opts)
	parts.gwPol = gwPol
	parts.respPol = respPol
	if opts.loadPath == "" && opts.savePath != "" {
		snap, err := saveScenarioSnapshot(parts, stdout)
		if err != nil {
			return err
		}
		// Run on exactly what was persisted (budgets injected, not
		// relearned), so the -save run and a later -load replay enforce
		// the same model.
		parts.gwPol, parts.respPol = snap.Gateway, snap.Response
	}
	mode := ""
	if opts.prevent {
		mode = ", prevention on"
	}
	fmt.Fprintf(stdout, "watching %s (%v, %s%s)\n",
		spec.Name, spec.Duration, origin, mode)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := make(chan trace.Record, engine.DefaultBuffer)
	streamErr := make(chan error, 1)
	go func() { streamErr <- spec.Stream(ctx, ch) }()

	// Tally ground truth on the way past: DetectionRate only inspects
	// injected records, so keeping just those scores the stream without
	// retaining it.
	var injected trace.Trace
	src := teeInjected{src: engine.NewChanSource(ctx, ch), injected: &injected}
	if err := watchStream(parts, src, &injected, stdout); err != nil {
		return err
	}
	return <-streamErr
}

// saveScenarioSnapshot persists what the scenario run just trained: the
// template and pool always, and — with -prevent — the gateway policy
// (whitelist, budgets learned from the clean windows) and the response
// policy the flags describe, so a later -load or -serve replays the
// same model without the matrix.
func saveScenarioSnapshot(parts *engineParts, stdout io.Writer) (*store.Snapshot, error) {
	opts := parts.opts
	snap, err := store.New(parts.cfg.Core, parts.tmpl, parts.pool)
	if err != nil {
		return nil, err
	}
	if opts.prevent {
		// The same constructor every engine build uses, exported through
		// store's capture helpers — what is persisted is exactly what
		// the run enforces.
		gw, resp, err := parts.buildPolicy()
		if err != nil {
			return nil, err
		}
		snap.Gateway = store.CaptureGateway(gw)
		snap.Response = store.CaptureResponse(resp)
	}
	if err := store.Save(opts.savePath, snap); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "snapshot written to %s\n", opts.savePath)
	return snap, nil
}

// serveOptions collects the -serve flags.
type serveOptions struct {
	addr          string
	loadPath      string
	adapt         bool
	adaptEvery    int
	checkpoint    string
	adminToken    string
	maxBody       int64
	ingestTimeout time.Duration
	faults        string
	record        string
	journal       string
	fleet         int
	fleetIdle     time.Duration
	quotaFrames   int
	quotaWindow   time.Duration
	tlsCert       string
	tlsKey        string
	logger        *slog.Logger
}

// runServe is the long-running daemon: restore the model from a
// snapshot, serve the HTTP API until a signal or an admin shutdown,
// then drain cleanly (final partial windows are flushed, like the
// offline detector's Flush). With -adapt the daemon also learns from
// live clean windows and, with -checkpoint, persists what it learned.
func runServe(opts serveOptions, stdout io.Writer) error {
	var inj *fault.Injector
	if opts.faults != "" {
		parsed, err := fault.Parse(opts.faults)
		if err != nil {
			return err
		}
		inj = parsed
		defer inj.Close()
		fmt.Fprintf(stdout, "fault injection armed: %s\n", inj)
	}
	snap, err := store.Load(opts.loadPath)
	var degraded []string
	if err != nil {
		// The base snapshot is unusable. With checkpointing configured,
		// a previous run's adapted models are on disk right next to it —
		// starting degraded from the newest valid one beats refusing to
		// protect the bus at all. The fallback is loud: a warning here,
		// and a note in /stats and /healthz for as long as the daemon
		// runs.
		if opts.checkpoint == "" {
			return err
		}
		ck, name, cerr := newestCheckpoint(opts.checkpoint)
		if cerr != nil {
			return fmt.Errorf("%w (checkpoint fallback: %v)", err, cerr)
		}
		fmt.Fprintf(stdout, "warning: %v; starting from checkpoint %s\n", err, name)
		degraded = append(degraded, fmt.Sprintf("started from checkpoint %s: %v", name, err))
		snap = ck
	}
	// Surface a broken key pair before the pipeline spins up, not at the
	// first TLS handshake.
	var tlsCert tls.Certificate
	if opts.tlsCert != "" {
		cert, err := tls.LoadX509KeyPair(opts.tlsCert, opts.tlsKey)
		if err != nil {
			return fmt.Errorf("load TLS key pair: %w", err)
		}
		tlsCert = cert
	}
	cfg := server.Config{
		Snapshot:       snap,
		CheckpointPath: opts.checkpoint,
		AdminToken:     opts.adminToken,
		MaxBody:        opts.maxBody,
		IngestTimeout:  opts.ingestTimeout,
		// A slab that cannot enter the feed in 5s means the engines are
		// hopelessly behind — shed with 429 rather than stall the client.
		ShedAfter:   5 * time.Second,
		Fault:       inj,
		Degraded:    degraded,
		RecordDir:   opts.record,
		JournalDir:  opts.journal,
		QuotaFrames: opts.quotaFrames,
		QuotaWindow: opts.quotaWindow,
		Logger:      opts.logger,
	}
	if opts.fleet > 0 {
		cfg.Fleet = &server.FleetOptions{Engines: opts.fleet, IdleAfter: opts.fleetIdle}
	}
	if opts.adapt {
		// The cadence doubles as the warm-up: "-adapt-every 3" promotes
		// first after 3 clean windows, then every 3.
		cfg.Adapt = &server.AdaptOptions{Every: opts.adaptEvery, MinWindows: opts.adaptEvery}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	mode := "detect"
	if snap.Gateway != nil || snap.Response != nil {
		mode = "prevent"
	}
	if opts.adapt {
		mode += "+adapt"
	}
	if opts.fleet > 0 {
		mode += fmt.Sprintf("+fleet/%d", opts.fleet)
	}
	// The pipeline deliberately does not run on the signal context: a
	// signal triggers a graceful drain below, not a mid-window abort.
	if err := srv.Start(context.Background()); err != nil {
		return err
	}
	scheme := "http"
	if opts.tlsCert != "" {
		scheme = "https"
	}
	fmt.Fprintf(stdout, "serving on %s://%s (%s mode, window %v, alpha %g, %d training windows, %d pool IDs)\n",
		scheme, ln.Addr(), mode, snap.Core.Window, snap.Core.Alpha, snap.Template.Windows, len(snap.Pool))
	if opts.quotaFrames > 0 {
		fmt.Fprintf(stdout, "per-vehicle ingest quota: %d frames per %v\n", opts.quotaFrames, opts.quotaWindow)
	}
	if opts.record != "" {
		fmt.Fprintf(stdout, "recording to %s (replay with: canids -replay %s)\n", opts.record, opts.record)
	}
	if opts.journal != "" {
		fmt.Fprintf(stdout, "alert journal: %s\n", opts.journal)
	}
	if snap.Adapt != nil {
		fmt.Fprintf(stdout, "snapshot carries adaptation provenance: %d promotions over %d windows (drift %.2e)\n",
			snap.Adapt.Promotions, snap.Adapt.Windows, snap.Adapt.Drift)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// ReadHeaderTimeout bounds idle connections and IdleTimeout reaps
	// keep-alives. ReadTimeout seeds the whole-request deadline; the
	// ingest handler extends it per read via ResponseController, so a
	// long streaming body stays alive as long as bytes keep arriving.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if opts.ingestTimeout > 0 {
		hs.ReadTimeout = opts.ingestTimeout
	}
	httpErr := make(chan error, 1)
	if opts.tlsCert != "" {
		hs.TLSConfig = &tls.Config{Certificates: []tls.Certificate{tlsCert}, MinVersion: tls.VersionTLS12}
		go func() { httpErr <- hs.ServeTLS(ln, "", "") }()
	} else {
		go func() { httpErr <- hs.Serve(ln) }()
	}

	select {
	case <-ctx.Done():
		// Restore default signal handling immediately: the drain below
		// waits for in-flight ingests, and a second Ctrl+C must be able
		// to kill the process rather than be swallowed.
		stop()
		fmt.Fprintln(stdout, "signal received; draining (interrupt again to force quit)")
	case <-srv.Done():
		// Admin shutdown (the handler drained before responding), or the
		// pipeline died; Drain below surfaces which.
	case err := <-httpErr:
		srv.Drain()
		return err
	}
	drainErr := srv.Drain()
	// Let in-flight responses (the admin shutdown summary) finish.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(shutdownCtx)
	total, _ := srv.Stats()
	fmt.Fprintf(stdout, "served %d frames, %d windows, %d alerts\n",
		total.Frames, total.Windows, srv.AlertsTotal())
	if opts.adapt {
		var promotions, windows uint64
		for _, st := range srv.AdaptStatus() {
			promotions += st.Promotions
			windows += st.Windows
		}
		fmt.Fprintf(stdout, "adaptation: %d promotions over %d windows\n", promotions, windows)
	}
	return drainErr
}

// runReplay re-runs a -record capture as a local incident
// reproduction: the same snapshot (checksum-verified against the
// manifest), the same batching/adaptation options, and the
// captured per-bus record stream pushed through the same supervisor
// path the daemon served it on. When the recorded run kept an alert
// journal, the replayed journal must match it byte for byte — any
// divergence is an error.
func runReplay(dir string, logger *slog.Logger, stdout io.Writer) error {
	m, err := server.LoadManifest(dir)
	if err != nil {
		return err
	}
	snap, err := m.LoadSnapshot(dir)
	if err != nil {
		return err
	}
	replayJournal := filepath.Join(dir, "replay")
	// A previous replay's journal would byte-diff against stale
	// segments; start clean.
	if err := os.RemoveAll(replayJournal); err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Snapshot:   snap,
		Buffer:     m.Buffer,
		Batch:      m.Batch,
		Adapt:      m.Adapt,
		JournalDir: replayJournal,
		Logger:     logger,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(context.Background()); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replaying %s (window %v, alpha %g)\n",
		dir, snap.Core.Window, snap.Core.Alpha)
	records, replayErr := srv.ReplayCapture(dir)
	drainErr := srv.Drain()
	if replayErr != nil {
		return replayErr
	}
	if drainErr != nil {
		return drainErr
	}
	total, _ := srv.Stats()
	fmt.Fprintf(stdout, "replayed %d records: %d frames, %d windows, %d alerts\n",
		records, total.Frames, total.Windows, srv.AlertsTotal())
	for _, note := range srv.DegradedNotes() {
		fmt.Fprintf(stdout, "note: %s\n", note)
	}
	recorded := m.JournalDir(dir)
	if recorded == "" {
		fmt.Fprintln(stdout, "recorded run kept no alert journal; nothing to verify")
		return nil
	}
	if err := compareJournalDirs(recorded, replayJournal); err != nil {
		return fmt.Errorf("replay diverged from the recorded run: %w", err)
	}
	fmt.Fprintf(stdout, "alert journal reproduced bit-for-bit (%s == %s)\n", recorded, replayJournal)
	return nil
}

// compareJournalDirs byte-compares two alert-journal directories: the
// same files (rotated segments included) holding the same bytes.
func compareJournalDirs(want, got string) error {
	wantNames, err := journalFiles(want)
	if err != nil {
		return err
	}
	gotNames, err := journalFiles(got)
	if err != nil {
		return err
	}
	if strings.Join(wantNames, "\n") != strings.Join(gotNames, "\n") {
		return fmt.Errorf("journal files differ: recorded %v, replayed %v", wantNames, gotNames)
	}
	for _, name := range wantNames {
		a, err := os.ReadFile(filepath.Join(want, name))
		if err != nil {
			return err
		}
		b, err := os.ReadFile(filepath.Join(got, name))
		if err != nil {
			return err
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("journal %s differs (%d recorded bytes vs %d replayed)", name, len(a), len(b))
		}
	}
	return nil
}

// journalFiles lists a journal directory's file names, sorted.
func journalFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// newestCheckpoint scans the per-bus checkpoint files derived from base
// (model.snap -> model.<bus>.snap, plus their .prev generations) and
// returns the newest one that still loads and validates. Corrupt or
// missing candidates are skipped; an error means no usable checkpoint
// exists at all. Coarse-mtime filesystems make timestamp ties common,
// so equal mtimes break deterministically — a primary checkpoint beats
// a .prev generation (rotation keeps the primary at least as fresh),
// then the lexicographically smaller name wins — rather than letting
// glob order decide.
func newestCheckpoint(base string) (*store.Snapshot, string, error) {
	ext := filepath.Ext(base)
	pattern := strings.TrimSuffix(base, ext) + ".*" + ext
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, "", err
	}
	prev, _ := filepath.Glob(pattern + ".prev")
	// An extensionless base makes pattern "base.*", which matched the
	// .prev generations already — dedupe so no candidate is stat'd and
	// loaded twice.
	seen := make(map[string]bool, len(paths)+len(prev))
	candidates := make([]string, 0, len(paths)+len(prev))
	for _, p := range append(paths, prev...) {
		if !seen[p] {
			seen[p] = true
			candidates = append(candidates, p)
		}
	}
	var (
		best     *store.Snapshot
		bestName string
		bestMod  time.Time
	)
	better := func(p string, mod time.Time) bool {
		if best == nil {
			return true
		}
		if !mod.Equal(bestMod) {
			return mod.After(bestMod)
		}
		pPrev := strings.HasSuffix(p, ".prev")
		if bPrev := strings.HasSuffix(bestName, ".prev"); pPrev != bPrev {
			return !pPrev
		}
		return p < bestName
	}
	for _, p := range candidates {
		info, err := os.Stat(p)
		if err != nil || !better(p, info.ModTime()) {
			continue
		}
		snap, err := store.Load(p)
		if err != nil {
			continue
		}
		best, bestName, bestMod = snap, p, info.ModTime()
	}
	if best == nil {
		return nil, "", fmt.Errorf("no usable checkpoint matches %s", pattern)
	}
	return best, bestName, nil
}

// teeInjected records the injected (ground truth) records of a stream.
type teeInjected struct {
	src      engine.Source
	injected *trace.Trace
}

func (t teeInjected) Next() (trace.Record, error) {
	rec, err := t.src.Next()
	if err == nil && rec.Injected {
		*t.injected = append(*t.injected, rec)
	}
	return rec, err
}

// scenarioPool returns the legal ID pool of the scenario's profile, for
// malicious-ID inference on alerts.
func scenarioPool(spec scenario.Spec) []can.ID {
	return vehicle.NewFusionProfile(spec.ProfileSeed).IDSet()
}

// liveStats abstracts "current run statistics" over the single engine
// and the multi-bus supervisor for the metrics ticker.
type liveStats func() engine.Stats

// watchStream drives one source through the engine (or, with -multibus,
// one engine per bus channel under a supervisor): alerts print as the
// engine releases them, a metrics goroutine snapshots live Stats on
// the configured cadence, and the final lines summarize the run. When
// injected ground truth was collected, detection — and with -prevent,
// prevention — is scored against it.
func watchStream(parts *engineParts, src engine.Source, injected *trace.Trace, stdout io.Writer) error {
	opts := parts.opts
	// Per-call prevention state: a multi-file run must not replay the
	// previous file's blocks in this file's report.
	parts.responders = make(map[string]*response.Responder)
	parts.gateways = make(map[string]*gateway.Gateway)
	start := time.Now()
	var mu sync.Mutex // stdout interleaving: sink vs metrics ticker
	var alerts []detect.Alert
	sink := func(channel string, a detect.Alert) {
		mu.Lock()
		defer mu.Unlock()
		alerts = append(alerts, a)
		if channel != "" {
			fmt.Fprintf(stdout, "  ALERT [%s] %s\n", channel, a)
		} else {
			fmt.Fprintf(stdout, "  ALERT %s\n", a)
		}
		// With -prevent the responder already ranks every alert (the
		// BLOCK report names the verdict); re-ranking here would double
		// the inference cost on the engine's dispatch goroutine, which
		// scores every window.
		if !opts.prevent && len(parts.pool) > 0 && len(a.Bits) > 0 {
			if res, err := infer.Rank(a, parts.pool, can.StandardIDBits, opts.rank); err == nil {
				fmt.Fprintf(stdout, "        suspected IDs: %s\n", formatIDs(res.Candidates))
			}
		}
	}

	var stats liveStats
	var run func() (engine.Stats, error)
	if opts.multibus {
		sup, err := engine.NewSupervisor(engine.SupervisorConfig{NewEngine: parts.build})
		if err != nil {
			return err
		}
		stats = sup.TotalStats
		run = func() (engine.Stats, error) {
			_, err := sup.Run(context.Background(), src, sink)
			return sup.TotalStats(), err
		}
	} else {
		eng, err := parts.build("")
		if err != nil {
			return err
		}
		stats = eng.Stats
		run = func() (engine.Stats, error) {
			return eng.Run(context.Background(), src, func(a detect.Alert) { sink("", a) })
		}
	}

	stopMetrics := make(chan struct{})
	var metricsDone sync.WaitGroup
	if opts.metricsEvery > 0 {
		metricsDone.Add(1)
		go func() {
			defer metricsDone.Done()
			tick := time.NewTicker(opts.metricsEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					st := stats()
					mu.Lock()
					line := fmt.Sprintf("  -- t=%v frames=%d windows=%d alerts=%d rate=%.0f frames/s",
						st.LastTime.Truncate(time.Millisecond), st.Frames, st.Windows, st.Alerts,
						float64(st.Frames)/time.Since(start).Seconds())
					if opts.prevent {
						line += fmt.Sprintf(" blocked=%d", st.Dropped)
					}
					fmt.Fprintln(stdout, line)
					mu.Unlock()
				case <-stopMetrics:
					return
				}
			}
		}()
	}

	st, err := run()
	close(stopMetrics)
	metricsDone.Wait()
	if err != nil {
		return err
	}

	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "done: %d frames in %v (%.0f frames/s), %d windows, %d alerts\n",
		st.Frames, elapsed.Truncate(time.Millisecond), float64(st.Frames)/elapsed.Seconds(),
		st.Windows, st.Alerts)
	if opts.prevent {
		reportPrevention(parts, st, injected, stdout)
	}
	if injected != nil && len(*injected) > 0 {
		dr := metrics.DetectionRate(*injected, alerts)
		fmt.Fprintf(stdout, "ground truth: %d injected frames, detection rate %.1f%%\n",
			len(*injected), 100*dr)
	}
	return nil
}

// reportPrevention prints the response history and scores the
// pre-filter against ground truth: how many attack frames the gateway
// stopped, and how many legitimate frames it dropped as collateral.
func reportPrevention(parts *engineParts, st engine.Stats, injected *trace.Trace, stdout io.Writer) {
	for _, channel := range sortedKeys(parts.responders) {
		resp := parts.responders[channel]
		tag := ""
		if channel != "" {
			tag = fmt.Sprintf(" [%s]", channel)
		}
		for _, act := range resp.Actions() {
			until := "forever"
			if act.Until != 0 {
				until = fmt.Sprint(act.Until)
			}
			fmt.Fprintf(stdout, "  BLOCK%s %s until %s (window %v..%v score=%.3f)\n",
				tag, formatIDs(act.Blocked), until, act.Alert.WindowStart, act.Alert.WindowEnd, act.Alert.Score)
		}
		// Expiry is lazy on the gateway; report only quarantines still
		// live at the end of the stream.
		var live []can.ID
		for id, until := range parts.gateways[channel].Quarantines() {
			if until == 0 || until > st.LastTime {
				live = append(live, id)
			}
		}
		if len(live) > 0 {
			sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
			fmt.Fprintf(stdout, "  still quarantined%s: %s\n", tag, formatIDs(live))
		}
	}
	legitDropped := st.Dropped - st.DroppedInjected
	if injected != nil && len(*injected) > 0 {
		attackTotal := uint64(len(*injected))
		legitTotal := st.Frames - attackTotal
		fmt.Fprintf(stdout, "prevention: %d/%d attack frames blocked (%.1f%%), %d/%d legitimate frames dropped (%.2f%% collateral)\n",
			st.DroppedInjected, attackTotal, 100*float64(st.DroppedInjected)/float64(attackTotal),
			legitDropped, legitTotal, 100*float64(legitDropped)/float64(max(legitTotal, 1)))
	} else {
		fmt.Fprintf(stdout, "prevention: %d frames dropped at the gateway (no ground truth to score)\n", st.Dropped)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
