// Command servebench is the serve-path benchmark of canids: it drives
// server.Server's HTTP handler in-process from closed-loop uploaders,
// reports the end-to-end metrics of one workload, checks every run
// against an offline reference, and with --trace 1 times each layer
// alone on the run's exact inputs (see README.md).
//
//	go run . --workload upload-binary --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {…}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the scenario-matrix base seed when --seed is absent.
const defaultSeed = 1

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits and layerUnits are every metric a --trace 0 and a
// --trace 1 run reports, with its unit; BENCHMARK.json lists the same.
var e2eUnits = map[string]string{
	"setup_s": "s", "frames_per_s": "1/s", "ingest_p50_ms": "ms", "ingest_p99_ms": "ms",
	"allocs_per_frame": "count", "peak_rss_mb": "MB", "delivered_frac": "share",
}

var layerUnits = map[string]string{
	"store.decode_ms": "ms", "server.new_ms": "ms", "server.start_ms": "ms",
	"trace.binary.ns_per_frame": "ns", "trace.binary.allocs_per_frame": "count",
	"trace.candump.ns_per_frame": "ns", "trace.candump.allocs_per_frame": "count",
	"server.request.ns_per_frame": "ns", "server.request.allocs_per_frame": "count",
	"server.drain_ms":             "ms",
	"engine.classic.ns_per_frame": "ns", "engine.classic.allocs_per_frame": "count",
	"engine.classic_1shard.ns_per_frame": "ns", "engine.classic_2shard.ns_per_frame": "ns",
	"engine.fleet.ns_per_frame": "ns", "engine.fleet.allocs_per_frame": "count",
	"engine.scored_share":           "share",
	"core.observe.ns_per_frame":     "ns",
	"gateway.classify.ns_per_frame": "ns", "gateway.forward_share": "share",
	"response.handle_alert.us_per_alert": "us", "response.actions": "count",
	"adapt.promotions": "count", "adapt.clean_share": "share",
	"server.checkpoint_ms":        "ms",
	"journal.append.ns_per_entry": "ns", "journal.bytes_per_frame": "bytes",
	"ledger.layer_sum.ns_per_frame": "ns", "ledger.gap.ns_per_frame": "ns",
	"tracing.overhead_share": "share", "process.cpu_ns_per_frame": "ns",
}

// withUnits pairs each value with its unit, requiring exactly the
// metrics units lists.
func withUnits(values map[string]float64, units map[string]string) (map[string]metric, error) {
	out := make(map[string]metric, len(values))
	for name, v := range values {
		u, ok := units[name]
		if !ok {
			return nil, fmt.Errorf("metric %s has no unit", name)
		}
		out[name] = metric{Value: v, Unit: u}
	}
	for name := range units {
		if _, ok := values[name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
	}
	return out, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose outputs failed the correctness gate;
// its result line is printed, without numbers.
var errIncorrect = errors.New("outputs failed the correctness gate")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "upload-binary", "workload: upload-binary, fleet-candump or adapt-durable")
	seed := fs.Int64("seed", defaultSeed, "scenario-matrix base seed the inputs derive from")
	seconds := fs.Int("seconds", 10, "run length; sizes the fixed request count of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 runs the traced ledger run and reports per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "servebench-run"), "directory for run files and spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e, err := newEnv(w, *seed, *seconds, dir)
	if err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	fmt.Fprintf(stdout, "workload %s (seed %d): %d clients, %d warm-up + %d timed requests, %d timed frames, serving on %d of %d CPUs\n",
		w.name, *seed, w.clients, e.warm, e.timed, e.traffic.frames(e.warm, e.requests()), servingProcs, runtime.NumCPU())

	res := result{Attempted: e.timed, Metrics: map[string]metric{}}
	var values map[string]float64
	units := e2eUnits
	if *traceFlag == 1 {
		units = layerUnits
		spans := filepath.Join(*outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		values, res.Failed, err = traced(e, spans, stdout)
	} else {
		values, res.Failed, err = untraced(e, stdout)
	}
	if err != nil {
		var ge *gateError
		if errors.As(err, &ge) {
			fmt.Fprintln(stdout, "FAIL:", err)
			printResult(stdout, res)
			return errIncorrect
		}
		return err
	}
	if res.Metrics, err = withUnits(values, units); err != nil {
		return err
	}
	res.Correct = true
	printResult(stdout, res)
	return nil
}

func printResult(stdout io.Writer, res result) {
	raw, _ := json.Marshal(res) //nolint:errcheck // plain values always marshal
	fmt.Fprintln(stdout, string(raw))
}

// untraced is the --trace 0 run: one gated serving pass, reported as
// the end-to-end metrics.
func untraced(e *env, out io.Writer) (map[string]float64, int, error) {
	s, err := e.serve("serve", false, nil)
	if err != nil {
		return nil, 0, err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, 0, err
	}
	if _, err := e.gate(s); err != nil {
		return nil, 0, err
	}
	p50, err := percentile(s.latency, 0.50)
	if err != nil {
		return nil, 0, err
	}
	p99, err := percentile(s.latency, 0.99)
	if err != nil {
		return nil, 0, err
	}
	total, _ := s.srv.Stats()
	failed := uint64(s.refused) + total.Lost + total.Shed
	setups := make([]float64, len(s.setup))
	for i, st := range s.setup {
		setups[i] = st.total().Seconds()
	}
	m := map[string]float64{
		"setup_s":          median(setups),
		"frames_per_s":     float64(s.frames) / s.wall.Seconds(),
		"ingest_p50_ms":    ms(p50),
		"ingest_p99_ms":    ms(p99),
		"allocs_per_frame": float64(s.mallocs) / float64(s.frames),
		"peak_rss_mb":      peak,
		"delivered_frac":   1 - float64(failed)/float64(e.traffic.frames(0, e.requests())),
	}
	fmt.Fprintf(out, "timed phase: %d frames in %v, drain %v\n", s.frames, s.wall.Round(time.Millisecond), s.drain.Round(time.Microsecond))
	n := len(s.latency)
	fmt.Fprintf(out, "ingest latency over %d requests: p50 %.3f ms, p99 %.3f ms (%d beyond p99)\n",
		n, m["ingest_p50_ms"], m["ingest_p99_ms"], n-int(math.Ceil(0.99*float64(n))))
	_, buses := s.srv.Stats()
	fmt.Fprintf(out, "served %d buses: %d windows, %d alerts, %d frames dropped by the gateway\n",
		len(buses), total.Windows, total.Alerts, total.Dropped)
	fmt.Fprintf(out, "failed_frac %.6f (refused, lost or shed frames / frames sent)\n", 1-m["delivered_frac"])
	for _, k := range []string{"setup_s", "frames_per_s", "ingest_p50_ms", "ingest_p99_ms", "allocs_per_frame", "peak_rss_mb", "delivered_frac"} {
		fmt.Fprintf(out, "  %-18s %14.4f %s\n", k, m[k], e2eUnits[k])
	}
	return m, s.failedReqs, nil
}
