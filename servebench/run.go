package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"canids/internal/engine"
	"canids/internal/engine/scenario"
	"canids/internal/server"
	"canids/internal/store"
)

// setupRuns is how many servers set-up constructs per run; setup_s is
// their median.
const setupRuns = 21

// servingProcs is the GOMAXPROCS of every serving pass and of the
// layer calls the ledger sets beside it. On two CPUs, the uploader,
// the demux and the bus engines race for the Ps: the order the
// scheduler picks swings throughput and the latency tail from run to
// run (upload-binary's p99 ranged 5 to 16 ms over five seeds, against
// 4.9 to 7.7 ms on one P). On one P every request runs to its reply
// and the engines then drain the feed, as they would between a remote
// uploader's round trips, so a run measures the serve path's cost
// rather than the scheduler's choices. The ledger's shard-scaling
// leg still runs on every CPU.
const servingProcs = 1

// roundTripYields is how often a client yields after each reply. One
// yield puts it at the tail of the global run queue, but the scheduler
// also polls that queue every 61 ticks, so a client sometimes resumed
// before the engines had drained the feed, and its next request
// blocked behind them. Those requests, up to 1% of upload-binary's,
// sat right at p99 (p99 4.4 to 4.6 ms, p99.5 4.8 to 5.8 ms); with four
// yields the tail is smooth (p99.5 4.4 to 4.6 ms, p99.9 4.5 to 5.1 ms).
const roundTripYields = 4

// env is everything a run builds before it measures anything.
type env struct {
	w       *workload
	seed    int64
	models  *models
	traffic *traffic
	// warm and timed are the request counts of the untimed warm-up and
	// of the timed phase; requests are numbered continuously across
	// both, so time keeps advancing.
	warm, timed int
	dir         string
}

func newEnv(w *workload, seed int64, seconds int, dir string) (*env, error) {
	specs := scenario.Matrix(seed)
	m, err := trainModels(specs)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	t, err := w.build(specs)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	e := &env{w: w, seed: seed, models: m, traffic: t, dir: dir}
	// The warm-up covers two full cycles of every stream, so every bus
	// engine or fleet lane exists and has closed windows before timing.
	e.warm = roundUp(2*t.streams*t.perCycle, w.clients)
	e.timed = roundUp(seconds*w.reqPerSecond, w.clients)
	return e, nil
}

func roundUp(n, k int) int { return (n + k - 1) / k * k }

// requests is the total the server ingests in one serving pass.
func (e *env) requests() int { return e.warm + e.timed }

// served is the outcome of one serving pass: warm-up, timed phase,
// drain.
type served struct {
	srv *server.Server
	// setup holds the set-up constructions' times.
	setup []setupTime
	// wall is the timed phase, first timed request to Drain returning.
	wall, drain time.Duration
	// latency holds every timed request's ServeHTTP duration.
	latency []time.Duration
	frames  int
	// ok[j] tells whether request j of the pass was accepted whole (a
	// 200 reporting every record); a refused request's records never
	// reached the engines. refused counts those records over the whole
	// pass and failedReqs the timed phase's refused requests.
	ok                  []bool
	refused, failedReqs int
	mallocs             uint64
	cpu                 time.Duration
	dir                 string
}

type setupTime struct{ decode, newServer, start time.Duration }

func (s setupTime) total() time.Duration { return s.decode + s.newServer + s.start }

// construct is one set-up: snapshot bytes → store.Decode → server.New
// → Start.
func (e *env) construct(dir string) (*server.Server, setupTime, error) {
	var st setupTime
	t0 := time.Now()
	snap, err := store.Decode(bytes.NewReader(e.models.snapshot(e.w)))
	if err != nil {
		return nil, st, fmt.Errorf("store.Decode: %w", err)
	}
	t1 := time.Now()
	cfg := e.w.config(snap, dir, e.traffic)
	if cfg.CheckpointPath != "" {
		// Checkpoint saves write into an existing directory, as the
		// daemon's -checkpoint expects.
		if err := os.MkdirAll(filepath.Dir(cfg.CheckpointPath), 0o755); err != nil {
			return nil, st, err
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, st, fmt.Errorf("server.New: %w", err)
	}
	t2 := time.Now()
	if err := srv.Start(context.Background()); err != nil {
		return nil, st, fmt.Errorf("server.Start: %w", err)
	}
	t3 := time.Now()
	st = setupTime{decode: t1.Sub(t0), newServer: t2.Sub(t1), start: t3.Sub(t2)}
	return srv, st, nil
}

// settle returns freed memory to the OS after a full collection, so
// the phase that follows starts from the same heap every run.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setUp constructs setupRuns servers, each after a settle, keeping the
// last one to serve with; the others drain at once. Each construction
// gets a fresh directory.
func (e *env) setUp(tag string) (*server.Server, []setupTime, string, error) {
	var times []setupTime
	for i := 0; ; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("%s-%d", tag, i))
		settle()
		srv, st, err := e.construct(dir)
		if err != nil {
			return nil, nil, "", err
		}
		times = append(times, st)
		if i == setupRuns-1 {
			return srv, times, dir, nil
		}
		if err := srv.Drain(); err != nil {
			return nil, nil, "", fmt.Errorf("drain unused server: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, "", err
		}
	}
}

// serve runs one serving pass on a fresh server, on servingProcs Ps:
// set-up (setupRuns constructions unless single), warm-up, then the
// timed phase through Drain. When spans is non-nil every timed request
// is recorded.
func (e *env) serve(tag string, single bool, spans *tracer) (*served, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(servingProcs))
	out := &served{}
	var err error
	if single {
		out.dir = filepath.Join(e.dir, tag)
		settle()
		var st setupTime
		out.srv, st, err = e.construct(out.dir)
		out.setup = []setupTime{st}
	} else {
		out.srv, out.setup, out.dir, err = e.setUp(tag)
	}
	if err != nil {
		return nil, err
	}
	h := out.srv.Handler()
	out.ok = make([]bool, e.requests())
	if err := e.drive(h, 0, e.warm, out.ok, nil, nil); err != nil {
		out.srv.Drain() //nolint:errcheck // the ingest error is the one to report
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	settle()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs0, cpu0 := mem.Mallocs, cpuTime()
	out.latency = make([]time.Duration, e.timed)
	start := time.Now()
	if err := e.drive(h, e.warm, e.timed, out.ok, out.latency, spans); err != nil {
		out.srv.Drain() //nolint:errcheck // the ingest error is the one to report
		return nil, fmt.Errorf("timed phase: %w", err)
	}
	drainStart := time.Now()
	if err := out.srv.Drain(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	end := time.Now()
	runtime.ReadMemStats(&mem)
	out.mallocs = mem.Mallocs - mallocs0
	out.cpu = cpuTime() - cpu0
	out.wall, out.drain = end.Sub(start), end.Sub(drainStart)
	out.frames = e.traffic.frames(e.warm, e.warm+e.timed)
	for j, ok := range out.ok {
		if !ok {
			b, _ := e.traffic.request(j)
			out.refused += b.frames()
			if j >= e.warm {
				out.failedReqs++
			}
		}
	}
	if spans != nil {
		spans.add("server.drain", spans.timed, drainStart, end, out.frames, 0)
	}
	return out, nil
}

// drive sends requests [from, from+n) from the workload's closed-loop
// clients: client c sends every request j with j ≡ c (mod clients), in
// order, each only after the previous one returned. Streams are
// partitioned the same way, so each bus's records arrive in order.
// ok[j] records whether request j was accepted whole, and latencies
// land in lat[j-from] when lat is non-nil. A reply that accepts part of
// a body cannot be accounted for and fails the correctness gate.
func (e *env) drive(h http.Handler, from, n int, ok []bool, lat []time.Duration, spans *tracer) error {
	clients := e.w.clients
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			var ac *allocCounter
			var a0 uint64
			if spans != nil {
				ac = newAllocCounter()
			}
			for j := from + c; j < from+n; j += clients {
				b, shift := e.traffic.request(j)
				b.stamp(shift)
				if ac != nil {
					a0 = ac.read()
				}
				t0 := time.Now()
				code, records, err := cl.post(h, b)
				t1 := time.Now()
				if err != nil {
					errs[c] = fmt.Errorf("request %d: %w", j, err)
					return
				}
				if lat != nil {
					lat[j-from] = t1.Sub(t0)
				}
				if ac != nil {
					spans.add("server.request", spans.timed, t0, t1, b.frames(), ac.read()-a0)
				}
				// A remote uploader's round trip parks the handler
				// goroutine between requests and lets the engines drain
				// the feed; without the yield, a lone client on one P
				// only gives way when the feed fills.
				for range roundTripYields {
					runtime.Gosched()
				}
				switch {
				case code == http.StatusOK && records == b.frames():
					ok[j] = true
				case code == http.StatusOK || records != 0:
					errs[c] = &gateError{fmt.Errorf("request %d: status %d accepted %d of its %d records",
						j, code, records, b.frames())}
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// client is one closed-loop uploader. It reuses its request and
// response objects, so the generator's own allocations stay a small,
// fixed share of the run's.
type client struct {
	rd   bytes.Reader
	rw   recorder
	reqs map[*body]*http.Request
}

func newClient() *client {
	return &client{reqs: make(map[*body]*http.Request), rw: recorder{header: make(http.Header)}}
}

// post serves one body through the handler and returns the status and
// the record count the reply reports as accepted.
func (c *client) post(h http.Handler, b *body) (int, int, error) {
	tmpl, ok := c.reqs[b]
	if !ok {
		var err error
		if tmpl, err = http.NewRequest(http.MethodPost, b.route, nil); err != nil {
			return 0, 0, err
		}
		c.reqs[b] = tmpl
	}
	c.rd.Reset(b.data)
	req := *tmpl
	req.Body = readCloser{&c.rd}
	req.ContentLength = int64(len(b.data))
	c.rw.reset()
	h.ServeHTTP(&c.rw, &req)
	n, err := recordsField(c.rw.body.Bytes(), c.rw.code == http.StatusOK)
	return c.rw.code, n, err
}

// recordsField extracts n from the ingest reply {"records":n}. Error
// replies may leave the count out when nothing was accepted; a 200
// must carry it.
func recordsField(reply []byte, required bool) (int, error) {
	const key = `"records":`
	i := bytes.Index(reply, []byte(key))
	if i < 0 {
		if !required {
			return 0, nil
		}
		return 0, fmt.Errorf("ingest reply without a record count: %q", reply)
	}
	rest := reply[i+len(key):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	return strconv.Atoi(string(rest[:end]))
}

type readCloser struct{ *bytes.Reader }

func (readCloser) Close() error { return nil }

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) reset() {
	clear(r.header)
	r.code = 0
	r.body.Reset()
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// resident-set high-water mark, so peak_rss_mb measures the serving
// run rather than input generation.
func resetPeakRSS() error {
	settle()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// busCounts are one bus's served outcome.
type busCounts struct {
	Alerts, Dropped, Promotions, Shed uint64
}

// accounting checks the frame identity of a drained run: per bus, the
// records the server accepted equal frames + lost + shed, and the
// supervisor's own accepted count equals frames + lost. Refused
// requests are not a failure here; their records count in
// delivered_frac.
func accounting(accepted map[string]uint64, stats map[string]engine.Stats,
	health map[string]engine.BusHealth) error {
	for ch := range stats {
		if _, ok := accepted[ch]; !ok {
			return fmt.Errorf("server served bus %s, which no accepted request carried", ch)
		}
	}
	for ch, n := range accepted {
		st, ok := stats[ch]
		if !ok {
			if n == 0 {
				continue
			}
			return fmt.Errorf("bus %s: no statistics", ch)
		}
		if got := st.Frames + st.Lost + st.Shed; got != n {
			return fmt.Errorf("bus %s: accepted %d but frames %d + lost %d + shed %d = %d",
				ch, n, st.Frames, st.Lost, st.Shed, got)
		}
		if h := health[ch]; h.Accepted != st.Frames+st.Lost {
			return fmt.Errorf("bus %s: supervisor accepted %d but frames %d + lost %d", ch, h.Accepted, st.Frames, st.Lost)
		}
	}
	return nil
}
