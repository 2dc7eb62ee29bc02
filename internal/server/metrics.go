// GET /metrics: the Prometheus text exposition (format version 0.0.4),
// hand-rolled — the repo takes no dependencies — over the counters the
// server already keeps: engine.Stats per bus, Supervisor.Health, the
// adaptation status, and the server's own totals. Every series a
// deployment would page on is here; the values reconcile exactly with
// /stats (same snapshots, same accounting: after a drain,
// canids_bus_accepted_total == frames + lost per bus).
package server

import (
	"bytes"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"canids/internal/engine"
	"canids/internal/trace"
)

// busStates are the health states exported as a one-hot
// canids_bus_state series, in a fixed order for stable output.
var busStates = []string{engine.BusOK, engine.BusStalled, engine.BusRestarting, engine.BusDead}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(s.metricsText()) //nolint:errcheck // headers are out; nothing left to report
}

// metricsText renders every metric family. Buses are emitted in sorted
// order and floats in shortest-round-trip form, so two scrapes of the
// same state are byte-identical — diffable in tests and in incident
// timelines.
func (s *Server) metricsText() []byte {
	_, buses := s.Stats()
	health := s.sup.Health()
	names := make([]string, 0, len(buses))
	for ch := range buses {
		names = append(names, ch)
	}
	sort.Strings(names)

	var b bytes.Buffer
	m := promBuf{b: &b}

	m.family("canids_uptime_seconds", "gauge", "Seconds since the serving pipeline was created.")
	m.sample("canids_uptime_seconds", nil, promFloat(time.Since(s.startTime).Seconds()))
	m.family("canids_alerts_total", "counter", "Alerts emitted across all buses since start.")
	m.sample("canids_alerts_total", nil, promUint(s.AlertsTotal()))
	m.family("canids_checkpoint_retries_total", "counter", "Background checkpoint retry attempts after failed writes.")
	m.sample("canids_checkpoint_retries_total", nil, promUint(s.CheckpointRetries()))
	m.family("canids_degraded_notes", "gauge", "Degradation events recorded so far (text in /stats).")
	m.sample("canids_degraded_notes", nil, strconv.Itoa(len(s.DegradedNotes())))
	m.family("canids_serving_epoch", "gauge", "Model generation the server is serving (bumped by /admin/reload).")
	m.sample("canids_serving_epoch", nil, promUint(s.Model().Epoch()))

	for _, fam := range []struct {
		name, help string
		v          func(engine.Stats) uint64
	}{
		{"canids_bus_frames_total", "Frames the bus pipeline processed.", func(st engine.Stats) uint64 { return st.Frames }},
		{"canids_bus_dropped_total", "Frames the gateway pre-filter dropped.", func(st engine.Stats) uint64 { return st.Dropped }},
		{"canids_bus_dropped_injected_total", "Dropped frames that were attack ground truth.", func(st engine.Stats) uint64 { return st.DroppedInjected }},
		{"canids_bus_windows_total", "Detection windows closed.", func(st engine.Stats) uint64 { return st.Windows }},
		{"canids_bus_alerts_total", "Alerts the bus emitted.", func(st engine.Stats) uint64 { return st.Alerts }},
		{"canids_bus_lost_total", "Frames that arrived while the bus was down.", func(st engine.Stats) uint64 { return st.Lost }},
		{"canids_bus_shed_total", "Frames the per-channel ingest quota refused at the demux.", func(st engine.Stats) uint64 { return st.Shed }},
	} {
		m.family(fam.name, "counter", fam.help)
		for _, ch := range names {
			m.sample(fam.name, busLabel(ch), promUint(fam.v(buses[ch])))
		}
	}

	m.family("canids_bus_accepted_total", "counter", "Records the demux delivered into the bus feed; equals frames + lost after a drain.")
	for _, ch := range names {
		m.sample("canids_bus_accepted_total", busLabel(ch), promUint(health[ch].Accepted))
	}
	m.family("canids_model_epoch", "gauge", "Model generation each bus is serving; all buses converge after a reload.")
	for _, ch := range names {
		m.sample("canids_model_epoch", busLabel(ch), promUint(health[ch].Epoch))
	}
	m.family("canids_bus_restarts_total", "counter", "Engine restarts (crash recoveries) this run.")
	for _, ch := range names {
		m.sample("canids_bus_restarts_total", busLabel(ch), promUint(health[ch].Restarts))
	}
	m.family("canids_bus_state", "gauge", "One-hot bus health state (ok, stalled, restarting, dead).")
	for _, ch := range names {
		for _, state := range busStates {
			v := "0"
			if health[ch].State == state {
				v = "1"
			}
			m.sample("canids_bus_state", append(busLabel(ch), [2]string{"state", state}), v)
		}
	}
	m.family("canids_bus_stalled_seconds", "gauge", "How long the oldest waiting frame has been refused (0 unless stalled).")
	for _, ch := range names {
		m.sample("canids_bus_stalled_seconds", busLabel(ch), promFloat(health[ch].StalledSeconds))
	}

	if adaptSt := s.AdaptStatus(); adaptSt != nil {
		adBuses := make([]string, 0, len(adaptSt))
		for ch := range adaptSt {
			adBuses = append(adBuses, ch)
		}
		sort.Strings(adBuses)
		for _, fam := range []struct {
			name, help string
			v          func(ch string) uint64
		}{
			{"canids_adapt_windows_total", "Closed detection windows the adapter observed.", func(ch string) uint64 { return adaptSt[ch].Windows }},
			{"canids_adapt_clean_windows_total", "Windows clean enough to learn from.", func(ch string) uint64 { return adaptSt[ch].Clean }},
			{"canids_adapt_promotions_total", "Model promotions (budget/template swaps) so far.", func(ch string) uint64 { return adaptSt[ch].Promotions }},
		} {
			m.family(fam.name, "counter", fam.help)
			for _, ch := range adBuses {
				m.sample(fam.name, busLabel(ch), promUint(fam.v(ch)))
			}
		}
	}

	m.family("canids_journal_errors_total", "counter", "Alert-journal append failures (the first one disables the journal).")
	m.sample("canids_journal_errors_total", nil, promUint(s.journalErrors.Load()))
	if s.journal != nil {
		jst := s.journal.Stats()
		m.family("canids_journal_bytes", "gauge", "Active alert-journal segment size per bus, header included.")
		for _, ks := range jst {
			m.sample("canids_journal_bytes", busLabel(ks.Key), strconv.FormatInt(ks.ActiveBytes, 10))
		}
		m.family("canids_journal_segments", "gauge", "Alert-journal segment files per bus, rotated plus active.")
		for _, ks := range jst {
			m.sample("canids_journal_segments", busLabel(ks.Key), strconv.Itoa(ks.Segments))
		}
	}

	version, goVersion := buildInfo()
	m.family("canids_build_info", "gauge", "Build metadata as labels; the value is always 1.")
	m.sample("canids_build_info", [][2]string{{"version", version}, {"go_version", goVersion}}, "1")

	// Latency histograms (internal/hist): cumulative le buckets in
	// seconds, byte-stable for equal state. Counts reconcile with the
	// counters above at quiescence: one ingest observation per Ingest
	// call, one pipeline observation per closed window, one detection
	// observation per alert, one checkpoint observation per save.
	histBus := func(ch string) string { return `bus="` + promEscape(ch) + `"` }
	m.family("canids_ingest_request_seconds", "histogram", "Whole ingest call duration: decode plus feed backpressure.")
	s.obs.ingest.WriteProm(&b, "canids_ingest_request_seconds", "")
	m.family("canids_ingest_decode_seconds", "histogram", "Ingest decode time per wire format (request duration minus feed wait).")
	for _, f := range []trace.Format{trace.FormatCandump, trace.FormatCSV, trace.FormatBinary} {
		s.obs.decode[f].WriteProm(&b, "canids_ingest_decode_seconds", `format="`+f.String()+`"`)
	}
	obsNames, obsBuses := s.obs.snapshotBuses()
	m.family("canids_pipeline_latency_seconds", "histogram", "Window close to window scored, per bus (engine pipeline latency).")
	for i, ch := range obsNames {
		obsBuses[i].pipeline.WriteProm(&b, "canids_pipeline_latency_seconds", histBus(ch))
	}
	m.family("canids_detect_latency_seconds", "histogram", "End-to-end detection latency per bus: record ingest to alert emit.")
	for i, ch := range obsNames {
		obsBuses[i].detect.WriteProm(&b, "canids_detect_latency_seconds", histBus(ch))
	}
	m.family("canids_checkpoint_save_seconds", "histogram", "One checkpoint save, fault seam included.")
	s.obs.checkpoint.WriteProm(&b, "canids_checkpoint_save_seconds", "")

	// Go runtime gauges, for the pprof-adjacent questions (/admin/pprof
	// has the detail): scheduler and heap pressure at scrape time.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.family("canids_goroutines", "gauge", "Live goroutines.")
	m.sample("canids_goroutines", nil, strconv.Itoa(runtime.NumGoroutine()))
	m.family("canids_heap_alloc_bytes", "gauge", "Bytes of live heap objects.")
	m.sample("canids_heap_alloc_bytes", nil, promUint(ms.HeapAlloc))
	m.family("canids_heap_objects", "gauge", "Live heap objects.")
	m.sample("canids_heap_objects", nil, promUint(ms.HeapObjects))
	m.family("canids_gc_cycles_total", "counter", "Completed GC cycles.")
	m.sample("canids_gc_cycles_total", nil, promUint(uint64(ms.NumGC)))
	m.family("canids_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.")
	m.sample("canids_gc_pause_seconds_total", nil, promFloat(float64(ms.PauseTotalNs)/1e9))
	return b.Bytes()
}

// buildInfo resolves the module version and Go toolchain version once;
// both are constant for the process, keeping canids_build_info
// byte-stable across scrapes.
var buildInfo = sync.OnceValues(func() (string, string) {
	version, goVersion := "unknown", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			version = bi.Main.Version
		}
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
	}
	return version, goVersion
})

// promBuf accumulates one exposition document.
type promBuf struct {
	b *bytes.Buffer
}

func (m promBuf) family(name, typ, help string) {
	m.b.WriteString("# HELP ")
	m.b.WriteString(name)
	m.b.WriteByte(' ')
	m.b.WriteString(help)
	m.b.WriteString("\n# TYPE ")
	m.b.WriteString(name)
	m.b.WriteByte(' ')
	m.b.WriteString(typ)
	m.b.WriteByte('\n')
}

func (m promBuf) sample(name string, labels [][2]string, value string) {
	m.b.WriteString(name)
	if len(labels) > 0 {
		m.b.WriteByte('{')
		for i, kv := range labels {
			if i > 0 {
				m.b.WriteByte(',')
			}
			m.b.WriteString(kv[0])
			m.b.WriteString(`="`)
			m.b.WriteString(promEscape(kv[1]))
			m.b.WriteByte('"')
		}
		m.b.WriteByte('}')
	}
	m.b.WriteByte(' ')
	m.b.WriteString(value)
	m.b.WriteByte('\n')
}

func busLabel(ch string) [][2]string {
	return [][2]string{{"bus", ch}}
}

// promEscape escapes a label value per the exposition format:
// backslash, double quote and newline.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

func promUint(v uint64) string { return strconv.FormatUint(v, 10) }

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
