package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"
)

// diagAlerts bounds how many recent alerts the incident bundle
// carries; the durable journal has the rest.
const diagAlerts = 200

// handlePprof serves the Go profiling surface under /admin/pprof/ —
// the same handlers net/http/pprof registers on the default mux, but
// mounted behind the admin bearer token instead of a world-readable
// /debug/pprof. The path tail picks the profile: "" is a text index,
// profile/trace/cmdline/symbol are the special endpoints, anything
// else is a named runtime profile (goroutine, heap, allocs, block,
// mutex, threadcreate).
func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/admin/pprof/")
	switch name {
	case "":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "canids pprof index\n\n")
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(w, "%s\t%d\n", p.Name(), p.Count())
		}
		fmt.Fprintf(w, "\nalso: profile (CPU, ?seconds=N), trace (?seconds=N), cmdline, symbol\n")
	case "profile":
		httppprof.Profile(w, r)
	case "trace":
		httppprof.Trace(w, r)
	case "cmdline":
		httppprof.Cmdline(w, r)
	case "symbol":
		httppprof.Symbol(w, r)
	default:
		// Handler serves a named runtime profile and 404s unknown names.
		httppprof.Handler(name).ServeHTTP(w, r)
	}
}

// diagConfig is the effective serving configuration as the incident
// bundle reports it: the operational knobs, with the snapshot elided
// (it is megabytes of model, already in the checkpoint/record
// artifacts) and the admin token redacted.
type diagConfig struct {
	Shards            int           `json:"shards"`
	Buffer            int           `json:"buffer"`
	Batch             int           `json:"batch"`
	MaxAlerts         int           `json:"max_alerts"`
	Adapt             *AdaptOptions `json:"adapt,omitempty"`
	CheckpointPath    string        `json:"checkpoint_path,omitempty"`
	AdminToken        string        `json:"admin_token,omitempty"`
	Fleet             *FleetOptions `json:"fleet,omitempty"`
	QuotaFrames       int           `json:"quota_frames,omitempty"`
	QuotaWindow       time.Duration `json:"quota_window,omitempty"`
	MaxBody           int64         `json:"max_body,omitempty"`
	IngestTimeout     time.Duration `json:"ingest_timeout,omitempty"`
	ShedAfter         time.Duration `json:"shed_after,omitempty"`
	MaxRestarts       int           `json:"max_restarts,omitempty"`
	RestartBackoff    time.Duration `json:"restart_backoff,omitempty"`
	StallAfter        time.Duration `json:"stall_after,omitempty"`
	CheckpointBackoff time.Duration `json:"checkpoint_backoff,omitempty"`
	JournalDir        string        `json:"journal_dir,omitempty"`
	JournalMaxBytes   int64         `json:"journal_max_bytes,omitempty"`
	RecordDir         string        `json:"record_dir,omitempty"`
	FaultsArmed       bool          `json:"faults_armed,omitempty"`
}

// handleDiag answers one request with a complete incident bundle: a
// tar.gz of the daemon's live observable state — stats, metrics,
// health, recent alerts, degradation notes, effective config, build
// info and a full goroutine dump — so an operator can capture a
// degraded daemon before restarting it.
func (s *Server) handleDiag(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	total, buses := s.Stats()
	stats, _ := json.MarshalIndent(statsResponse{
		UptimeSeconds:     now.Sub(s.startTime).Seconds(),
		Epoch:             s.Model().Epoch(),
		AlertsTotal:       s.AlertsTotal(),
		Total:             total,
		Buses:             buses,
		Health:            s.sup.Health(),
		Degraded:          s.DegradedNotes(),
		CheckpointRetries: s.CheckpointRetries(),
		Adapt:             s.AdaptStatus(),
	}, "", "  ")
	health, _ := json.MarshalIndent(map[string]any{
		"epoch":      s.Model().Epoch(),
		"buses":      s.sup.Channels(),
		"bus_health": s.sup.Health(),
	}, "", "  ")
	alerts, _ := json.MarshalIndent(s.Alerts(diagAlerts), "", "  ")
	cfg := s.cfg
	dc := diagConfig{
		Shards: cfg.Shards, Buffer: cfg.Buffer, Batch: cfg.Batch,
		MaxAlerts: cfg.MaxAlerts, Adapt: cfg.Adapt,
		CheckpointPath: cfg.CheckpointPath, Fleet: cfg.Fleet,
		QuotaFrames: cfg.QuotaFrames, QuotaWindow: cfg.QuotaWindow,
		MaxBody: cfg.MaxBody, IngestTimeout: cfg.IngestTimeout,
		ShedAfter: cfg.ShedAfter, MaxRestarts: cfg.MaxRestarts,
		RestartBackoff: cfg.RestartBackoff, StallAfter: cfg.StallAfter,
		CheckpointBackoff: cfg.CheckpointBackoff,
		JournalDir:        cfg.JournalDir, JournalMaxBytes: cfg.JournalMaxBytes,
		RecordDir: cfg.RecordDir, FaultsArmed: cfg.Fault != nil,
	}
	if cfg.AdminToken != "" {
		dc.AdminToken = "(redacted)"
	}
	config, _ := json.MarshalIndent(dc, "", "  ")

	var goroutines bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&goroutines, 2) //nolint:errcheck // a partial dump still ships

	var buildinfo bytes.Buffer
	if bi, ok := debug.ReadBuildInfo(); ok {
		buildinfo.WriteString(bi.String())
	}

	files := []struct {
		name string
		data []byte
	}{
		{"stats.json", stats},
		{"metrics.txt", s.metricsText()},
		{"healthz.json", health},
		{"alerts.json", alerts},
		{"config.json", config},
		{"degraded.txt", []byte(strings.Join(s.DegradedNotes(), "\n"))},
		{"goroutines.txt", goroutines.Bytes()},
		{"buildinfo.txt", buildinfo.Bytes()},
	}

	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf(`attachment; filename="canids-diag-%s.tar.gz"`, now.UTC().Format("20060102T150405Z")))
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	for _, f := range files {
		hdr := &tar.Header{
			Name:    f.name,
			Mode:    0o644,
			Size:    int64(len(f.data)),
			ModTime: now,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return // headers are out; the client sees a truncated archive
		}
		if _, err := tw.Write(f.data); err != nil {
			return
		}
	}
	tw.Close() //nolint:errcheck // flush failures surface as a torn archive
	gz.Close() //nolint:errcheck
	s.log.Info("incident bundle served", "files", len(files))
}
