package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/gateway"
	"canids/internal/journal"
	"canids/internal/response"
	"canids/internal/server"
	"canids/internal/trace"
)

// span is one traced call the benchmark made into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Frames int    `json:"frames,omitempty"`
	Allocs uint64 `json:"allocs"`
}

// tracer keeps a run's spans in memory until the run ends. Span IDs
// are 1-based; parent 0 is the root.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// timed and layers are the parents of the request spans and of the
	// isolated layer calls.
	timed, layers int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(start.Sub(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int, end time.Time, frames int, allocs uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Frames, s.Allocs = int64(end.Sub(t.t0)), frames, allocs
}

// add records a closed span.
func (t *tracer) add(name string, parent int, start, end time.Time, frames int, allocs uint64) {
	t.end(t.begin(name, parent, start), end, frames, allocs)
}

// sum totals the duration, frames and allocations of the named spans.
func (t *tracer) sum(name string) (d time.Duration, frames int, allocs uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
			frames += s.Frames
			allocs += s.Allocs
		}
	}
	return d, frames, allocs
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// allocCounter reads the process's cumulative heap allocation count
// without stopping the world, cheap enough for every request span. It
// counts tiny objects too, as runtime.MemStats.Mallocs does, so a
// span's count is comparable to allocs_per_frame. The count is
// process-wide: it includes whatever the engines allocate while a
// request is in flight, and with two clients overlapping spans count
// each other's allocations.
type allocCounter struct{ sample [2]metrics.Sample }

func newAllocCounter() *allocCounter {
	c := &allocCounter{}
	c.sample[0].Name = "/gc/heap/allocs:objects"
	c.sample[1].Name = "/gc/heap/tiny/allocs:objects"
	return c
}

func (c *allocCounter) read() uint64 {
	metrics.Read(c.sample[:])
	return c.sample[0].Value.Uint64() + c.sample[1].Value.Uint64()
}

// cost is one isolated layer measurement.
type cost struct {
	busy   time.Duration
	allocs uint64
	frames int
}

func (c cost) nsPerFrame() float64     { return ratio(float64(c.busy), float64(c.frames)) }
func (c cost) allocsPerFrame() float64 { return ratio(float64(c.allocs), float64(c.frames)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layer calls one layer alone on procs Ps, after a settle, as a span.
// f reports the frames it processed and, when it excludes its own
// preparation, its busy time (zero means the whole call).
func (t *tracer) layer(name string, procs int, f func() (frames int, busy time.Duration, err error)) (cost, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	settle()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	a0 := mem.Mallocs
	start := time.Now()
	frames, busy, err := f()
	end := time.Now()
	runtime.ReadMemStats(&mem)
	c := cost{busy: busy, allocs: mem.Mallocs - a0, frames: frames}
	if c.busy == 0 {
		c.busy = end.Sub(start)
	}
	t.add(name, t.layers, start, end, frames, c.allocs)
	if err != nil {
		return c, fmt.Errorf("%s: %w", name, err)
	}
	return c, nil
}

// decodeRun decodes every body of requests [0, n) in the given
// traffic's format, timing the decoder alone.
func decodeRun(t *traffic, n int) (int, time.Duration, error) {
	var busy time.Duration
	frames := 0
	var rd bytes.Reader
	for j := 0; j < n; j++ {
		b, shift := t.request(j)
		b.stamp(shift)
		rd.Reset(b.data)
		start := time.Now()
		dec, err := trace.NewDecoder(b.format, &rd)
		if err != nil {
			return frames, busy, err
		}
		for {
			if _, err := dec.Next(); err == io.EOF {
				break
			} else if err != nil {
				return frames, busy, err
			}
			frames++
		}
		busy += time.Since(start)
	}
	return frames, busy, nil
}

// ledgerRow is one line of the printed layer table.
type ledgerRow struct {
	layer  string
	c      cost
	onPath bool
}

// traced is the --trace 1 run: an untraced serving pass (gated, and
// the baseline for the tracing overhead), a traced pass with a span per
// request, then every layer called alone on the run's exact records
// and bodies. It returns the per-layer metrics and the untraced pass's
// failed requests.
func traced(e *env, spansPath string, out io.Writer) (map[string]float64, int, error) {
	tr := newTracer()
	untraced, err := e.serve("untraced", false, nil)
	if err != nil {
		return nil, 0, err
	}
	ref, err := e.gate(untraced)
	if err != nil {
		return nil, 0, err
	}
	if cfg := e.w.config(nil, e.dir, e.traffic); cfg.RecordDir != "" {
		rec := filepath.Join(untraced.dir, "record")
		if err := replayMatches(rec); err != nil {
			return nil, 0, &gateError{fmt.Errorf("replay: %w", err)}
		}
		fmt.Fprintf(out, "replay: alert journal reproduced bit for bit from %s\n", rec)
	}

	pass := tr.begin("serve.traced", 0, time.Now())
	tr.timed = pass
	withSpans, err := e.serve("traced", true, tr)
	if err != nil {
		return nil, 0, err
	}
	tr.end(pass, time.Now(), withSpans.frames, withSpans.mallocs)
	tracedRef := ref
	if !slices.Equal(withSpans.ok, untraced.ok) {
		// The passes refused different requests, so each needs its own
		// reference.
		if tracedRef, err = e.runReference(0, withSpans.ok); err != nil {
			return nil, 0, err
		}
	}
	if err := compareCounts(servedCounts(withSpans.srv), tracedRef.counts, lossyBuses(withSpans.srv)); err != nil {
		return nil, 0, &gateError{fmt.Errorf("traced pass: %w", err)}
	}

	n := e.requests()
	m := map[string]float64{}
	tr.layers = tr.begin("layers", 0, time.Now())
	var rows []ledgerRow

	// Set-up, split by step.
	var dec, nw, st []float64
	for _, s := range untraced.setup {
		dec, nw, st = append(dec, ms(s.decode)), append(nw, ms(s.newServer)), append(st, ms(s.start))
	}
	m["store.decode_ms"], m["server.new_ms"], m["server.start_ms"] = median(dec), median(nw), median(st)

	// Decoders: the workload's own format, and the one it bypasses on a
	// rendering of the same records.
	other, err := e.traffic.rerender(e.w.other)
	if err != nil {
		return nil, 0, err
	}
	for _, tf := range []*traffic{e.traffic, other} {
		f := tf.bodies[0].format
		name := "trace." + formatName(f)
		c, err := tr.layer(name, servingProcs, func() (int, time.Duration, error) { return decodeRun(tf, n) })
		if err != nil {
			return nil, 0, err
		}
		m[name+".ns_per_frame"], m[name+".allocs_per_frame"] = c.nsPerFrame(), c.allocsPerFrame()
		rows = append(rows, ledgerRow{name, c, f == e.w.format})
	}

	// Server: the traced pass's request spans, and the drain.
	d, frames, allocs := tr.sum("server.request")
	m["server.request.ns_per_frame"] = ratio(float64(d), float64(frames))
	m["server.request.allocs_per_frame"] = ratio(float64(allocs), float64(frames))
	m["server.drain_ms"] = ms(untraced.drain)

	// Engines: dedicated classic per-bus engines at the served shard
	// count, then pinned to 1 and 2 shards (the shard-scaling leg), and
	// fleet lanes. Each must reproduce the gate's counts.
	fleet := e.w.config(nil, e.dir, e.traffic).Fleet != nil
	for _, shards := range []int{0, 1, 2} {
		name := fmt.Sprintf("engine.classic_%dshard", shards)
		procs := runtime.NumCPU()
		if shards == 0 {
			name, procs = "engine.classic", servingProcs
		}
		c, err := tr.layer(name, procs, func() (int, time.Duration, error) {
			r, err := e.runReference(shards, untraced.ok)
			if err != nil {
				return 0, 0, err
			}
			if err := compareCounts(r.counts, ref.counts, nil); err != nil {
				return 0, 0, &gateError{err}
			}
			return r.frames, r.wall, nil
		})
		if err != nil {
			return nil, 0, err
		}
		m[name+".ns_per_frame"] = c.nsPerFrame()
		if shards == 0 {
			m[name+".allocs_per_frame"] = c.allocsPerFrame()
		}
		rows = append(rows, ledgerRow{name, c, shards == 0 && !fleet})
	}
	fc, err := tr.layer("engine.fleet", servingProcs, func() (int, time.Duration, error) { return e.fleetRun(n) })
	if err != nil {
		return nil, 0, err
	}
	m["engine.fleet.ns_per_frame"], m["engine.fleet.allocs_per_frame"] = fc.nsPerFrame(), fc.allocsPerFrame()
	rows = append(rows, ledgerRow{"engine.fleet", fc, fleet})

	_, buses := untraced.srv.Stats()
	var scored, accepted uint64
	for _, s := range buses {
		scored += s.Frames - s.Dropped
	}
	for _, v := range e.acceptedPerBus(untraced.ok) {
		accepted += v
	}
	m["engine.scored_share"] = ratio(float64(scored), float64(accepted))

	// Core: the sequential detector, the single-thread baseline.
	model, err := e.servedModel()
	if err != nil {
		return nil, 0, err
	}
	cc, err := tr.layer("core.observe", servingProcs, func() (int, time.Duration, error) {
		frames := 0
		for _, ch := range e.traffic.channels {
			det, err := core.New(model.Core())
			if err != nil {
				return frames, 0, err
			}
			if err := det.SetTemplate(model.Template()); err != nil {
				return frames, 0, err
			}
			src := newRecordSource(e.traffic, ch, n, nil)
			for {
				rec, err := src.Next()
				if err == io.EOF {
					break
				}
				det.Observe(rec)
				frames++
			}
			det.Flush()
		}
		return frames, 0, nil
	})
	if err != nil {
		return nil, 0, err
	}
	m["core.observe.ns_per_frame"] = cc.nsPerFrame()
	rows = append(rows, ledgerRow{"core.observe", cc, false})

	// Gateway and response, with the trained prevention policy whether
	// or not the workload serves it.
	forwarded := 0
	gc, err := tr.layer("gateway.classify", servingProcs, func() (int, time.Duration, error) {
		frames := 0
		for _, ch := range e.traffic.channels {
			gw := gateway.NewWithPolicy(e.models.gateway)
			src := newRecordSource(e.traffic, ch, n, nil)
			for {
				rec, err := src.Next()
				if err == io.EOF {
					break
				}
				if gw.Classify(rec) == gateway.Forward {
					forwarded++
				}
				frames++
			}
		}
		return frames, 0, nil
	})
	if err != nil {
		return nil, 0, err
	}
	m["gateway.classify.ns_per_frame"] = gc.nsPerFrame()
	m["gateway.forward_share"] = ratio(float64(forwarded), float64(gc.frames))
	rows = append(rows, ledgerRow{"gateway.classify", gc, false})

	actions := 0
	rc, err := tr.layer("response.handle_alert", servingProcs, func() (int, time.Duration, error) {
		alerts := 0
		for _, ch := range e.traffic.channels {
			resp, err := response.New(gateway.NewWithPolicy(e.models.gateway), e.models.response)
			if err != nil {
				return alerts, 0, err
			}
			for _, a := range ref.alerts[ch] {
				act, err := resp.HandleAlert(a)
				if err != nil {
					return alerts, 0, err
				}
				if act != nil {
					actions++
				}
				alerts++
			}
		}
		return alerts, 0, nil
	})
	if err != nil {
		return nil, 0, err
	}
	m["response.handle_alert.us_per_alert"] = ratio(float64(rc.busy)/1e3, float64(rc.frames))
	m["response.actions"] = float64(actions)

	// Adaptation, from the served run.
	var promotions, clean, windows uint64
	for _, s := range untraced.srv.AdaptStatus() {
		promotions, clean, windows = promotions+s.Promotions, clean+s.Clean, windows+s.Windows
	}
	m["adapt.promotions"] = float64(promotions)
	m["adapt.clean_share"] = ratio(float64(clean), float64(windows))
	// The run's own checkpoint saves, from the server's /metrics, before
	// the timed calls below add to them.
	ckSaved, err := checkpointSeconds(untraced.srv)
	if err != nil {
		return nil, 0, err
	}
	m["server.checkpoint_ms"] = 0
	if e.w.config(nil, e.dir, e.traffic).CheckpointPath != "" {
		var cks []float64
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, err := untraced.srv.Checkpoint(); err != nil {
				return nil, 0, err
			}
			cks = append(cks, ms(time.Since(start)))
		}
		m["server.checkpoint_ms"] = median(cks)
	}

	// Journal: re-append the run's alert-journal and capture entries
	// (or, where the run kept neither, its alerts as the server would
	// journal them) into a fresh set.
	entries, err := journalEntries(e, untraced, ref)
	if err != nil {
		return nil, 0, err
	}
	jc, err := tr.layer("journal.append", servingProcs, func() (int, time.Duration, error) {
		set, err := journal.OpenSet(filepath.Join(e.dir, "ledger-journal"), journal.Options{})
		if err != nil {
			return 0, 0, err
		}
		for _, en := range entries {
			if err := set.Append(en.key, en.payload); err != nil {
				return 0, 0, err
			}
		}
		return len(entries), 0, set.Close()
	})
	if err != nil {
		return nil, 0, err
	}
	m["journal.append.ns_per_entry"] = jc.nsPerFrame()
	written, err := dirBytes(untraced.dir)
	if err != nil {
		return nil, 0, err
	}
	allFrames := e.traffic.frames(0, n)
	m["journal.bytes_per_frame"] = ratio(float64(written), float64(allFrames))
	rows = append(rows, ledgerRow{"journal.append", cost{busy: jc.busy, allocs: jc.allocs, frames: allFrames}, written > 0})
	rows = append(rows, ledgerRow{"server.checkpoint", cost{busy: ckSaved, frames: allFrames}, ckSaved > 0})
	tr.end(tr.layers, time.Now(), 0, 0)

	// The ledger: layers on the workload's path against the end-to-end
	// cost per frame.
	e2e := float64(untraced.wall) / float64(untraced.frames)
	sum := 0.0
	fmt.Fprintf(out, "\nlayer ledger (%s, seed %d; isolated calls over the run's %d frames):\n", e.w.name, e.seed, allFrames)
	fmt.Fprintf(out, "  %-24s %12s %14s %8s\n", "layer", "ns/frame", "allocs/frame", "on path")
	for _, r := range rows {
		mark := ""
		if r.onPath {
			sum += r.c.nsPerFrame()
			mark = "yes"
		}
		fmt.Fprintf(out, "  %-24s %12.1f %14.3f %8s\n", r.layer, r.c.nsPerFrame(), r.c.allocsPerFrame(), mark)
	}
	m["ledger.layer_sum.ns_per_frame"] = sum
	m["ledger.gap.ns_per_frame"] = e2e - sum
	m["tracing.overhead_share"] = float64(withSpans.wall-untraced.wall) / float64(untraced.wall)
	m["process.cpu_ns_per_frame"] = float64(untraced.cpu) / float64(untraced.frames)
	fmt.Fprintf(out, "  %-24s %12.1f\n", "sum of on-path layers", sum)
	fmt.Fprintf(out, "  %-24s %12.1f   (1e9 / frames_per_s, untraced pass)\n", "end to end", e2e)
	fmt.Fprintf(out, "  %-24s %12.1f   (what no layer call covers, on %d P)\n", "gap", e2e-sum, servingProcs)
	fmt.Fprintf(out, "  tracing overhead: %.2f%% (traced pass %v vs untraced %v)\n",
		100*m["tracing.overhead_share"], withSpans.wall.Round(time.Millisecond), untraced.wall.Round(time.Millisecond))
	fmt.Fprintf(out, "  shard scaling on all %d CPUs: classic %.1f ns/frame at 1 shard, %.1f at 2 shards\n",
		runtime.NumCPU(), m["engine.classic_1shard.ns_per_frame"], m["engine.classic_2shard.ns_per_frame"])
	if err := tr.write(spansPath); err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), spansPath)
	return m, untraced.failedReqs, nil
}

// checkpointSeconds is the total time the server spent in checkpoint
// saves, read from its canids_checkpoint_save_seconds_sum.
func checkpointSeconds(srv *server.Server) (time.Duration, error) {
	var rw recorder
	rw.header = make(http.Header)
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	srv.Handler().ServeHTTP(&rw, req)
	const key = "canids_checkpoint_save_seconds_sum "
	for _, line := range strings.Split(rw.body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			secs, err := strconv.ParseFloat(v, 64)
			return time.Duration(secs * float64(time.Second)), err
		}
	}
	return 0, fmt.Errorf("no %s in /metrics", strings.TrimSpace(key))
}

// fleetRun serves requests [0, n) through a fleet-mode supervisor with
// the workload's model and quota over 2 engines.
func (e *env) fleetRun(n int) (int, time.Duration, error) {
	model, err := e.servedModel()
	if err != nil {
		return 0, 0, err
	}
	cfg := e.w.config(nil, e.dir, e.traffic)
	sup, err := engine.NewSupervisor(engine.SupervisorConfig{
		Fleet:       &engine.FleetConfig{Engines: 2, Model: model},
		QuotaFrames: cfg.QuotaFrames, QuotaWindow: cfg.QuotaWindow,
	})
	if err != nil {
		return 0, 0, err
	}
	stats, err := sup.Run(context.Background(), newRecordSource(e.traffic, "", n, nil), func(string, detect.Alert) {})
	frames := 0
	for _, s := range stats {
		frames += int(s.Frames + s.Shed)
	}
	return frames, 0, err
}

type entry struct {
	key     string
	payload []byte
}

// journalEntries collects the entries the run appended to its alert
// journal and its record capture. Where the run kept neither, it
// encodes the reference alerts the way the server journals them.
func journalEntries(e *env, s *served, ref *reference) ([]entry, error) {
	cfg := e.w.config(nil, s.dir, e.traffic)
	var dirs []string
	if cfg.JournalDir != "" {
		dirs = append(dirs, cfg.JournalDir)
	}
	if cfg.RecordDir != "" {
		dirs = append(dirs, filepath.Join(cfg.RecordDir, server.CaptureSubdir))
	}
	var out []entry
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.jnl"))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			got, _, err := journal.Read(f)
			if err != nil {
				return nil, err
			}
			key := filepath.Base(dir) + "/" + strings.TrimSuffix(filepath.Base(f), ".jnl")
			for _, p := range got {
				out = append(out, entry{key, p})
			}
		}
	}
	if len(dirs) > 0 {
		return out, nil
	}
	for _, ch := range e.traffic.channels {
		for _, a := range ref.alerts[ch] {
			payload, err := json.Marshal(server.TaggedAlert{Channel: ch, Alert: a})
			if err != nil {
				return nil, err
			}
			out = append(out, entry{ch, payload})
		}
	}
	return out, nil
}

// dirBytes totals the journal and capture files (*.jnl) under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, ".jnl") && !strings.Contains(path, string(filepath.Separator)+"replay"+string(filepath.Separator)) {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
