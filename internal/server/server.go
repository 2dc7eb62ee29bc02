// Package server is the long-running serving layer behind `canids
// -serve`: an HTTP facade over the streaming engine that ingests live
// CAN traffic, detects (and optionally prevents) over it with a model
// restored from a store.Snapshot, and hot-swaps new snapshots without
// restarting or dropping frames.
//
// # Architecture
//
//	HTTP ingest ─→ feed channel ─→ engine.Supervisor ─→ one Engine per bus
//	                                      │
//	admin reload ─→ Engine.Swap (window-boundary hot swap)
//	                                      ▼
//	                      alert ring ←─ serialized sink
//
// One goroutine runs the supervisor over a channel-backed source;
// ingest handlers decode request bodies incrementally (all three trace
// formats stream) and push records into that channel, so a capture
// never has to fit in memory and backpressure from the engines
// propagates to the HTTP client. Records must arrive in non-decreasing
// timestamp order per bus — the same contract every detector in this
// repository has; interleaving concurrent ingests for the same bus is
// the client's responsibility.
//
// # Endpoints
//
//	POST /ingest?format=candump|csv|binary        mixed-bus ingest (records keep their channel)
//	POST /ingest/{channel}?format=...             per-bus ingest (channel overrides the records')
//	GET  /healthz                                 liveness + bus list
//	GET  /stats                                   live per-bus and total engine statistics (+ adaptation)
//	GET  /metrics                                 Prometheus text exposition of the same counters
//	GET  /alerts?n=N                              the most recent alerts (bounded ring)
//	POST /admin/reload                            hot-swap a snapshot (body: store format)
//	POST /admin/shutdown                          drain, flush final windows, report summary
//	GET  /admin/adapt                             per-bus adaptation counters
//	POST /admin/adapt?action=pause|resume|force   adaptation controls ([&channel=bus])
//	POST /admin/adapt?action=configure            set promotion knobs ([&channel=bus]
//	     &every=N&min_windows=M                    — zero/absent leaves a knob alone)
//	POST /admin/checkpoint                        persist the adapted models now
//
// With Config.AdminToken set, every /admin/* verb requires
// "Authorization: Bearer <token>" and answers 401 otherwise.
//
// # Online adaptation
//
// Config.Adapt arms one adapt.Adapter per bus (internal/adapt): live
// windows the detector scored clean re-learn the gateway rate budgets
// and EWMA-refresh the template, and promotions land through the same
// engine.Swap window-boundary hook a reload uses — so the adapted alert
// stream stays bit-identical to a sequential run swapping the same
// models at the same boundaries (TestEngineAdaptMatchesSequential).
// Config.CheckpointPath persists each bus's adapted model as a
// version-2 snapshot (with adaptation metadata) after a promotion — the
// background save writes only buses whose model changed since their last
// successful save, so an alert-heavy bus that never promotes is not
// rewritten on every other bus's promotion — and every bus at drain; a
// restart -loads the checkpoint and the learned budgets survive. Between
// a bus's promotions its file's adaptation counters (windows, clean)
// lag the live ones; the model, which is all a restart reads, does not.
// An /admin/reload rebases every adapter on the reloaded model:
// adaptation restarts from it rather than promoting artifacts learned
// against the replaced template.
//
// # Hot reload
//
// Reload decodes and validates a full snapshot, then queues an
// engine.Swap on every live bus engine: the swap lands at each engine's
// next window boundary (where prevention's blocks land too), so every
// window is scored wholly under one template — zero dropped frames, no
// torn windows, deterministic for a given record stream. Buses that
// appear after the reload are built from the new snapshot. The model's
// structural identity — the detector's core configuration (width,
// window, alpha…), the presence of gateway and response policy, and
// the gateway rate window — cannot change across a reload: a snapshot
// that differs in any of them is rejected, and a rejected reload
// changes nothing (the snapshot commits only after every live engine
// accepted the swap).
//
// # Fault tolerance
//
// Buses are crash-isolated (engine.Supervisor): a panicking or erroring
// bus engine is torn down and rebuilt — from its newest valid
// checkpoint when checkpointing is on, walking checkpoint →
// checkpoint.prev → base snapshot and logging every fallback — with
// capped exponential backoff, while the other buses keep serving
// bit-identical alert streams. Frames that arrive while a bus is down
// are counted exactly in its Stats.Lost; a bus that exhausts its
// restart budget goes dead and /healthz turns 503 "degraded" instead of
// the daemon crashing. Checkpoint writes keep the previous generation
// as .prev without ever leaving the checkpoint path missing, and retry
// failures with capped backoff. Ingest is hardened
// separately: Config.MaxBody (413), Config.IngestTimeout per-read
// deadlines (408), and Config.ShedAfter load-shedding (429 +
// Retry-After). Config.Fault arms the deterministic chaos harness
// (internal/fault) behind all of it.
//
// # Observability and incident replay
//
// GET /metrics renders the live counters — per-bus frames, drops,
// losses, alerts, restarts, health state, adaptation progress,
// checkpoint retries — in the Prometheus text exposition format
// (hand-rolled; no dependency), reconciling exactly with /stats:
// after a drain, accepted == frames + lost per bus, faults included.
// Config.JournalDir additionally appends every alert to a durable
// per-bus journal (internal/journal) next to the in-memory ring, and
// Config.RecordDir captures the exact post-demux record stream per
// bus plus the served snapshot, which ReplayCapture (canids -replay)
// pushes back through an identical pipeline to reproduce the alert
// journal bit for bit — see record.go for the directory layout and
// the determinism contract.
//
// # Shutdown
//
// Drain stops ingestion (further ingests get 503), closes the feed so
// every engine flushes its final partial window — exactly like the
// offline detector's Flush — and waits for the pipeline to finish. The
// admin shutdown endpoint responds with the final statistics after the
// drain, which is what lets the CI smoke leg assert serve == offline
// alert counts.
package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"canids/internal/adapt"
	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/fault"
	"canids/internal/journal"
	"canids/internal/model"
	"canids/internal/store"
	"canids/internal/trace"
)

// DefaultMaxAlerts is the default alert-ring capacity.
const DefaultMaxAlerts = 1024

// DefaultJournalMaxBytes is the default alert-journal segment cap
// before rotation (Config.JournalMaxBytes).
const DefaultJournalMaxBytes int64 = 64 << 20

// DefaultCheckpointBackoff is the first retry delay after a failed
// background checkpoint; consecutive failures double it, capped at
// maxCheckpointBackoff.
const (
	DefaultCheckpointBackoff = time.Second
	maxCheckpointBackoff     = 30 * time.Second
)

// maxDegradedNotes bounds the degradation log surfaced by /stats; a
// server degraded enough to exhaust it has said all it needs to.
const maxDegradedNotes = 32

// Errors returned by ingestion.
var (
	ErrDraining   = errors.New("server: draining, no further ingest accepted")
	ErrStopped    = errors.New("server: pipeline stopped")
	ErrNotStarted = errors.New("server: not started")
	// ErrBacklog sheds an ingest whose slab could not enter the feed
	// within Config.ShedAfter — the engines are not keeping up, and a
	// bounded wait plus 429 beats an unbounded client stall.
	ErrBacklog = errors.New("server: ingest backlog, retry later")
)

// AdaptOptions tunes the per-bus online adapters (see internal/adapt);
// a nil options pointer disables adaptation. Zero-valued knobs take the
// adapt package defaults; RateSlack additionally falls back to the
// snapshot's persisted learning slack before the package default.
type AdaptOptions struct {
	// Every is the promotion cadence in clean windows.
	Every int
	// Ring is the clean-window ring capacity budgets are learned over.
	Ring int
	// MinWindows is the ring fill required before the first promotion.
	MinWindows int
	// RateSlack multiplies the learned per-window peaks.
	RateSlack float64
	// TemplateEWMA is the template-mean smoothing factor λ.
	TemplateEWMA float64
	// FreezeTemplate pins the template (budget-only adaptation).
	FreezeTemplate bool
}

// FleetOptions arms fleet serving: many vehicle channels
// rendezvous-hashed over a fixed pool of engine hosts, all sharing one
// immutable model.Model (the per-vehicle marginal state shrinks to
// detector counters and the quarantine list). A crashed host restarts
// under the same policy as a classic bus (MaxRestarts, RestartBackoff),
// with an empty lane table. Fleet mode gates off online adaptation and
// checkpointing — one model serves the whole fleet, swapped atomically
// by /admin/reload.
type FleetOptions struct {
	// Engines is the host-goroutine pool size (K in "N vehicles over K
	// engines"). At least 1.
	Engines int
	// IdleAfter tears an idle vehicle lane down once fleet stream time
	// has advanced this far past its newest record; zero disables
	// teardown. Must cover the detection window and the gateway rate
	// window.
	IdleAfter time.Duration
}

// Config parameterizes a Server.
type Config struct {
	// Snapshot is the model to serve. Required and validated at New.
	Snapshot *store.Snapshot
	// Deprecated: ignored; every bus runs one lane.
	Shards int
	// Buffer is the capacity, in slabs, of the ingest feed and of every
	// host feed behind the demux; zero means engine.DefaultBuffer.
	// Batch sizes the ingest feed slabs (zero means
	// engine.DefaultBatch): decoded records travel to the supervisor in
	// recycled []trace.Record batches, so per-record channel sends
	// never dominate ingest (BenchmarkServeIngest).
	Buffer int
	Batch  int
	// MaxAlerts bounds the in-memory alert ring served by /alerts; the
	// total count keeps incrementing past it. Zero means
	// DefaultMaxAlerts.
	MaxAlerts int
	// Adapt, when non-nil, enables online adaptation: every bus engine
	// gets its own adapt.Adapter promoting re-learned budgets (when the
	// model carries a gateway) and an EWMA-refreshed template at window
	// boundaries. See /admin/adapt for the runtime controls.
	Adapt *AdaptOptions
	// CheckpointPath, when set (requires Adapt), persists each bus's
	// adapted model as a version-2 snapshot after every promotion and
	// once more at drain — atomically, to CheckpointFile(path, bus).
	CheckpointPath string
	// AdminToken, when set, locks every /admin/* endpoint behind
	// "Authorization: Bearer <token>". The daemon speaks plain HTTP
	// unless the CLI's -tls-cert/-tls-key arm in-process TLS; without
	// TLS (in-process or terminated in front), the token travels in
	// cleartext (see doc.go).
	AdminToken string
	// Fleet, when non-nil, serves in fleet mode (see FleetOptions).
	// Incompatible with Adapt.
	Fleet *FleetOptions
	// QuotaFrames and QuotaWindow arm the per-channel ingest quota: at
	// most QuotaFrames records per QuotaWindow of stream time per
	// channel; the excess is shed deterministically at the demux
	// (counted in Stats.Shed) and the channel's ingests answer 429
	// while it is over quota. Zero QuotaFrames disables the quota.
	QuotaFrames int
	QuotaWindow time.Duration

	// MaxBody bounds one ingest request body in bytes; a larger upload
	// gets 413. Zero means unbounded.
	MaxBody int64
	// IngestTimeout bounds each read of an ingest request body; a
	// client that stalls longer mid-body gets 408 instead of pinning an
	// ingest slot (and, worse, delaying a drain) forever. Zero disables
	// the per-read deadline.
	IngestTimeout time.Duration
	// ShedAfter bounds how long an ingest may wait to push a slab into
	// the feed before the request is shed with ErrBacklog (429 +
	// Retry-After at the HTTP layer). Zero keeps the pre-existing
	// behavior: backpressure propagates to the client indefinitely.
	ShedAfter time.Duration

	// MaxRestarts, RestartBackoff and StallAfter pass through to the
	// supervisor's per-bus restart policy (engine.SupervisorConfig);
	// zero values take the engine defaults.
	MaxRestarts    int
	RestartBackoff time.Duration
	StallAfter     time.Duration
	// CheckpointBackoff is the retry delay after a failed background
	// checkpoint write, doubling per consecutive failure up to 30s.
	// Zero means DefaultCheckpointBackoff.
	CheckpointBackoff time.Duration

	// JournalDir, when set, appends every alert — as it lands in the
	// in-memory ring — to a per-bus binary journal under this directory
	// (internal/journal: length-prefixed, CRC-checked, size-rotated,
	// torn-tail recovered on open). Per-bus files because only the
	// per-bus alert order is deterministic; the interleaving between
	// buses follows goroutine timing.
	JournalDir string
	// JournalMaxBytes caps one journal segment before rotation. Zero
	// means DefaultJournalMaxBytes.
	JournalMaxBytes int64
	// RecordDir, when set, arms incident recording: the served
	// snapshot and a manifest of the serving configuration are written
	// at New, and every demuxed record slab is captured per bus —
	// timestamps, channel tags and batch boundaries exactly as the
	// engines consume them — so `canids -replay` can re-run the stream
	// through an identical pipeline and reproduce the per-bus alert
	// journal bit for bit.
	RecordDir string

	// Fault, when non-nil, arms the deterministic fault-injection
	// harness: the injector is handed to every bus engine or fleet lane
	// (scoped by bus channel) and consulted at the checkpoint-write
	// seam. Chaos drills only; leave nil in production.
	Fault *fault.Injector
	// Logger receives the server's structured log stream (degradation
	// notes, reloads, checkpoint failures) and is threaded, with
	// per-bus attrs, into the supervisor and every bus engine. Nil
	// discards — stdout/stderr stay silent by default.
	Logger *slog.Logger
	// Degraded seeds the degradation notes surfaced by /stats and
	// /healthz — the CLI records a startup checkpoint fallback here so
	// an operator can tell a degraded start from a clean one.
	Degraded []string
}

// TaggedAlert is one emitted alert with its bus.
type TaggedAlert struct {
	Channel string       `json:"channel,omitempty"`
	Alert   detect.Alert `json:"alert"`
}

// Server serves detection over HTTP. Create with New, Start the
// pipeline, mount Handler on an http.Server, and Drain to stop.
type Server struct {
	cfg  Config
	sup  *engine.Supervisor
	feed chan []trace.Record
	pool *engine.RecordPool // slabs of Config.Batch records
	// decoders recycles Ingest's decoders across requests.
	decoders decoderPool

	// mu guards the served snapshot/model pair and the engine/adapter
	// registries. The engine factory and Reload both hold it end to
	// end, so an engine is always either built from the newest model or
	// registered before a reload collects the engines to swap — no bus
	// can miss an update. snap is the store-level form (what /admin/
	// reload compares against and the record manifest persists); model
	// is the same thing frozen into the immutable model.Model every
	// layer serves, carrying the operator epoch.
	mu       sync.Mutex
	snap     *store.Snapshot
	model    *model.Model
	engines  map[string]*engine.Engine
	adapters map[string]*adapt.Adapter
	// adaptPaused is the fleet-wide pause: buses that appear while it is
	// set start their adapters paused, so a pause issued before (or
	// between) buses cannot be outrun by new traffic.
	adaptPaused bool

	// ingestMu guards the feed channel's lifecycle: ingests hold it
	// shared while pushing, Drain holds it exclusively to close the
	// feed, so a send on a closed channel cannot happen.
	ingestMu sync.RWMutex
	draining bool

	// The alert ring is a fixed circular buffer of the newest
	// cfg.MaxAlerts alerts (allocated on the first alert): ringHead is
	// the oldest retained entry, ringLen how many are live. A full ring
	// overwrites in place — steady-state alert retention allocates
	// nothing (TestAlertRingSteadyStateAllocs).
	alertsMu    sync.Mutex
	ring        []TaggedAlert
	ringHead    int
	ringLen     int
	alertsTotal atomic.Uint64

	// journal is the durable per-bus alert journal (Config.JournalDir);
	// capture is the record/replay slab capture (Config.RecordDir).
	// Both nil when unconfigured; their first write error disables them
	// with a degradation note rather than failing the pipeline.
	journal     *journal.Set
	capture     *journal.Set
	journalFail atomic.Bool
	captureFail atomic.Bool
	// captureBuf is captureSlab's encode buffer, reused slab to slab;
	// only the demux goroutine touches it.
	captureBuf []byte

	// ckCh nudges the checkpoint goroutine after a promotion; ckMu
	// serializes concurrent Checkpoint calls (background vs admin) and
	// guards ckErr, the outcome of the most recent checkpoint attempt
	// (surfaced by /admin/adapt so silent background failures cannot
	// hide), and ckSaved, the model each bus's file last saved
	// successfully. ckRetries counts background retry attempts after
	// failed writes (surfaced by /stats).
	ckCh      chan struct{}
	ckDone    chan struct{}
	ckMu      sync.Mutex
	ckErr     error
	ckSaved   map[string]*model.Model
	ckRetries atomic.Uint64

	// degraded is the bounded log of degradation events — checkpoint
	// fallbacks, restores from stale generations — surfaced by /stats
	// and /healthz so a server limping along says so.
	degradedMu sync.Mutex
	degraded   []string

	// obs is the latency-histogram registry (/metrics histogram
	// families); journalErrors counts alert-journal append failures.
	obs           *observability
	journalErrors atomic.Uint64
	log           *slog.Logger

	started   atomic.Bool
	startTime time.Time
	drainOnce sync.Once
	runDone   chan struct{}
	runErr    error
}

// New creates a server for the given snapshot. The snapshot is
// validated and a probe engine (and, with adaptation enabled, a probe
// adapter) is built immediately, so a model that cannot serve fails
// here, not at the first ingested record.
func New(cfg Config) (*Server, error) {
	if cfg.Snapshot == nil {
		return nil, errors.New("server: a snapshot is required")
	}
	if err := cfg.Snapshot.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxAlerts <= 0 {
		cfg.MaxAlerts = DefaultMaxAlerts
	}
	if cfg.CheckpointPath != "" && cfg.Adapt == nil {
		return nil, errors.New("server: checkpointing needs adaptation enabled")
	}
	if cfg.Fleet != nil {
		if cfg.Adapt != nil {
			return nil, errors.New("server: fleet serving does not adapt; drop one of the two")
		}
	}
	if cfg.QuotaFrames > 0 && cfg.QuotaWindow <= 0 {
		return nil, errors.New("server: an ingest quota needs a positive quota window")
	}
	feedBuf := cfg.Buffer
	if feedBuf <= 0 {
		feedBuf = engine.DefaultBuffer
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = engine.DefaultBatch
	}
	// Epoch 1 is the initial build; every /admin/reload mints the next
	// generation, and zero stays reserved for "no model".
	base, err := cfg.Snapshot.BuildModel(1)
	if err != nil {
		return nil, fmt.Errorf("server: snapshot cannot serve: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		snap:  cfg.Snapshot,
		model: base,
		// The pool covers the whole feed buffer plus in-flight slabs, so
		// a steady ingest stream recycles instead of allocating even when
		// the engines lag a full buffer behind.
		feed:      make(chan []trace.Record, feedBuf),
		pool:      engine.NewRecordPool(feedBuf+16, batch),
		engines:   make(map[string]*engine.Engine),
		adapters:  make(map[string]*adapt.Adapter),
		runDone:   make(chan struct{}),
		startTime: time.Now(),
		obs:       newObservability(),
		log:       cfg.Logger,
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	if cfg.CheckpointPath != "" {
		s.ckCh = make(chan struct{}, 1)
		s.ckDone = make(chan struct{})
		s.ckSaved = make(map[string]*model.Model)
	}
	if cfg.CheckpointBackoff <= 0 {
		s.cfg.CheckpointBackoff = DefaultCheckpointBackoff
	}
	for _, note := range cfg.Degraded {
		s.noteDegraded("%s", note)
	}
	if cfg.Adapt != nil {
		if _, err := s.newAdapter(base); err != nil {
			return nil, fmt.Errorf("server: snapshot cannot adapt: %w", err)
		}
	}
	if cfg.JournalDir != "" {
		maxBytes := cfg.JournalMaxBytes
		if maxBytes <= 0 {
			maxBytes = DefaultJournalMaxBytes
		}
		set, err := journal.OpenSet(cfg.JournalDir, journal.Options{MaxBytes: maxBytes})
		if err != nil {
			return nil, fmt.Errorf("server: alert journal: %w", err)
		}
		s.journal = set
	}
	if cfg.RecordDir != "" {
		if err := s.setupRecord(); err != nil {
			return nil, fmt.Errorf("server: record: %w", err)
		}
	}
	// The tap always carries the detection-latency watermark stamp;
	// with recording armed it also captures the slab. Stamping first
	// keeps the capture's failure path from skewing the clock.
	tap := s.observeTap
	if s.capture != nil {
		tap = func(channel string, slab []trace.Record) {
			s.observeTap(channel, slab)
			s.captureSlab(channel, slab)
		}
	}
	scfg := engine.SupervisorConfig{
		NewEngine:      s.newEngine,
		RestartEngine:  s.restartEngine,
		MaxRestarts:    cfg.MaxRestarts,
		RestartBackoff: cfg.RestartBackoff,
		StallAfter:     cfg.StallAfter,
		Buffer:         cfg.Buffer,
		Tap:            tap,
		QuotaFrames:    cfg.QuotaFrames,
		QuotaWindow:    cfg.QuotaWindow,
		Logger:         s.log,
	}
	if cfg.Fleet != nil {
		scfg.NewEngine = nil
		scfg.RestartEngine = nil
		scfg.Fleet = &engine.FleetConfig{
			Engines:   cfg.Fleet.Engines,
			Model:     base,
			IdleAfter: cfg.Fleet.IdleAfter,
			Fault:     cfg.Fault,
		}
	}
	sup, err := engine.NewSupervisor(scfg)
	if err != nil {
		return nil, err
	}
	s.sup = sup
	return s, nil
}

// noteDegraded appends one line to the bounded degradation log and
// mirrors it to the structured log (the log stream is unbounded; the
// /stats surface stays capped).
func (s *Server) noteDegraded(format string, args ...any) {
	note := fmt.Sprintf(format, args...)
	s.degradedMu.Lock()
	if len(s.degraded) < maxDegradedNotes {
		s.degraded = append(s.degraded, note)
	}
	s.degradedMu.Unlock()
	s.log.Warn("serving degraded", "note", note)
}

// DegradedNotes returns the degradation events recorded so far.
func (s *Server) DegradedNotes() []string {
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return append([]string(nil), s.degraded...)
}

// newAdapter builds one bus's adapter on the given base model. Budget
// learning turns on exactly when the model carries gateway policy (the
// same condition under which the engine builds a gateway); the learning
// slack falls back to the policy's persisted slack inside adapt.New.
func (s *Server) newAdapter(m *model.Model) (*adapt.Adapter, error) {
	o := s.cfg.Adapt
	ac := adapt.Config{
		Base:           m,
		Every:          o.Every,
		Ring:           o.Ring,
		MinWindows:     o.MinWindows,
		RateSlack:      o.RateSlack,
		TemplateEWMA:   o.TemplateEWMA,
		FreezeTemplate: o.FreezeTemplate,
		LearnBudgets:   m.Gateway() != nil,
	}
	if s.ckCh != nil {
		ac.OnPromote = func(adapt.Promotion) {
			// Non-blocking nudge: the checkpoint goroutine persists every
			// adapter's latest model, so collapsed nudges lose nothing.
			select {
			case s.ckCh <- struct{}{}:
			default:
			}
		}
	}
	return adapt.New(ac)
}

// newEngine is the supervisor's per-bus factory.
func (s *Server) newEngine(channel string) (*engine.Engine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buildBus(s.model, channel)
}

// buildBus assembles one bus's engine (and adapter, when adaptation is
// on) from the given model and registers both. The engine builds the
// bus's private gateway and responder from the model; the bus's fault
// scope, latency histogram and logger ride along. Caller holds s.mu.
func (s *Server) buildBus(m *model.Model, channel string) (*engine.Engine, error) {
	var hook engine.AdaptHook
	var ad *adapt.Adapter
	if s.cfg.Adapt != nil {
		var err error
		if ad, err = s.newAdapter(m); err != nil {
			return nil, err
		}
		hook = ad
	}
	eng, err := engine.NewFromModel(engine.Config{
		Adapt: hook, Fault: s.cfg.Fault, FaultScope: channel,
		Timing: engine.Timing{WindowClose: s.obs.bus(channel).pipeline},
		Logger: s.log.With("bus", channel),
	}, m)
	if err != nil {
		return nil, err
	}
	s.engines[channel] = eng
	if ad != nil {
		if s.adaptPaused {
			ad.Pause()
		}
		s.adapters[channel] = ad
	}
	return eng, nil
}

// restartEngine is the supervisor's factory for a crashed bus: it
// rebuilds the engine from the newest usable model — the bus's own
// checkpoint, then the checkpoint's previous generation, then the
// served snapshot — and rebuilds the bus's adapter from the same model,
// so a restarted bus resumes with everything it had learned up to its
// last durable promotion. Every fallback step is recorded in the
// degradation log.
func (s *Server) restartEngine(channel string, attempt int) (*engine.Engine, error) {
	m := s.restoreModel(channel)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buildBus(m, channel)
}

// restoreModel walks the restart fallback ladder for one bus:
// checkpoint, checkpoint.prev, served model. A candidate that is
// missing is skipped silently (a bus that never promoted has no
// checkpoint — that is a clean start, not degradation); one that is
// corrupt or structurally incompatible is skipped with a degradation
// note. The restored model keeps the currently served epoch: a
// checkpoint is background learning layered on an operator generation,
// not a generation of its own.
func (s *Server) restoreModel(channel string) *model.Model {
	s.mu.Lock()
	base := s.model
	s.mu.Unlock()
	if s.cfg.CheckpointPath == "" {
		return base
	}
	ck := CheckpointFile(s.cfg.CheckpointPath, channel)
	for _, path := range []string{ck, ck + ".prev"} {
		snap, err := store.Load(path)
		if err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				s.noteDegraded("bus %q restart: checkpoint %s unusable: %v", channel, filepath.Base(path), err)
			}
			continue
		}
		m, err := snap.BuildModel(base.Epoch())
		if err != nil {
			s.noteDegraded("bus %q restart: checkpoint %s unusable: %v", channel, filepath.Base(path), err)
			continue
		}
		if err := model.Compatible(base, m); err != nil {
			s.noteDegraded("bus %q restart: checkpoint %s incompatible: %v", channel, filepath.Base(path), err)
			continue
		}
		if path != ck {
			s.noteDegraded("bus %q restarted from previous checkpoint generation %s", channel, filepath.Base(path))
		}
		return m
	}
	return base
}

// Start launches the serving pipeline. The context bounds the whole
// run: canceling it aborts in-flight windows (use Drain for a clean
// flush instead).
func (s *Server) Start(ctx context.Context) error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("server: already started")
	}
	go func() {
		src := engine.NewChanBatchSource(ctx, s.feed, s.pool.Put)
		if s.capture != nil {
			src.Idle = s.flushCapture
		}
		_, err := s.sup.Run(ctx, src, s.recordAlert)
		// Seal the journal and capture files before the run is reported
		// done: whoever awaits Drain may byte-compare them immediately.
		if s.journal != nil {
			if cerr := s.journal.Close(); cerr != nil {
				s.noteDegraded("alert journal close: %v", cerr)
			}
		}
		if s.capture != nil {
			// A capture already disabled has its note; its writer
			// repeats the failure at Close.
			if cerr := s.capture.Close(); cerr != nil && !s.captureFail.Load() {
				s.noteDegraded("record capture close: %v", cerr)
			}
		}
		s.runErr = err
		close(s.runDone)
	}()
	if s.ckCh != nil {
		go s.checkpointLoop()
	}
	return nil
}

// checkpointLoop persists the adapted models after every promotion
// nudge — only the buses whose model changed since their last
// successful save (a failed bus stays changed, so its retry lands it) —
// and every bus once more when the pipeline finishes, so a drain never
// loses the last promotions. A failed write is retried with capped
// exponential backoff (Config.CheckpointBackoff) until it lands or a
// newer nudge supersedes it, so a transiently full or slow disk does
// not silently cost the run its durability; /stats counts the retries.
// Each attempt's outcome is recorded in ckErr: /admin/adapt reports the
// most recent failure, and an explicit /admin/checkpoint re-attempts
// the same saves and returns its own result. The final drain-time
// checkpoint retries a bounded number of times — a drain must finish
// even on a dead disk.
func (s *Server) checkpointLoop() {
	defer close(s.ckDone)
	failures := 0
	var timer *time.Timer
	var retry <-chan time.Time
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer, retry = nil, nil
		}
	}
	attempt := func() {
		stopTimer()
		if _, err := s.checkpoint(false); err != nil {
			d := checkpointBackoff(s.cfg.CheckpointBackoff, failures)
			failures++
			timer = time.NewTimer(d)
			retry = timer.C
		} else {
			failures = 0
		}
	}
	for {
		select {
		case <-s.ckCh:
			attempt()
		case <-retry:
			timer, retry = nil, nil
			s.ckRetries.Add(1)
			attempt()
		case <-s.runDone:
			stopTimer()
			for i := 0; ; i++ {
				if _, err := s.Checkpoint(); err == nil || i >= 2 {
					return
				}
				s.ckRetries.Add(1)
				time.Sleep(checkpointBackoff(s.cfg.CheckpointBackoff, i))
			}
		}
	}
}

// checkpointBackoff is the retry delay after the n-th consecutive
// failure (0-based): base doubling per failure, capped.
func checkpointBackoff(base time.Duration, n int) time.Duration {
	d := base << n
	if d > maxCheckpointBackoff || d <= 0 {
		d = maxCheckpointBackoff
	}
	return d
}

// CheckpointRetries returns how many background checkpoint retries ran.
func (s *Server) CheckpointRetries() uint64 { return s.ckRetries.Load() }

// lastCheckpointError returns the outcome of the most recent
// checkpoint attempt ("" when it succeeded or none ran yet).
func (s *Server) lastCheckpointError() string {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	if s.ckErr != nil {
		return s.ckErr.Error()
	}
	return ""
}

// Done is closed when the pipeline has finished — after a Drain
// flushed the final windows, or after the run context was canceled.
func (s *Server) Done() <-chan struct{} { return s.runDone }

// Drain stops ingestion, closes the feed so every engine flushes its
// final partial window, waits for the pipeline to finish, and returns
// its error. Safe to call more than once. In-flight ingest requests are
// allowed to finish first (they hold the ingest lock while decoding),
// so a client that stalls mid-body delays the drain — bound request
// lifetimes at the HTTP layer when that matters.
func (s *Server) Drain() error {
	if !s.started.Load() {
		return ErrNotStarted
	}
	s.drainOnce.Do(func() {
		s.ingestMu.Lock()
		s.draining = true
		close(s.feed)
		s.ingestMu.Unlock()
		s.log.Info("draining: ingest closed, flushing final windows")
	})
	<-s.runDone
	if s.ckDone != nil {
		// The final checkpoint captures promotions from the flushed
		// windows.
		<-s.ckDone
	}
	return s.runErr
}

// Ingest decodes records from r in the given format and feeds them to
// the pipeline, overriding each record's bus with channel when channel
// is non-empty. The decoder fills recycled slabs of Config.Batch
// records in place, so a heavy upload costs one decode call and one
// channel operation per batch instead of one per record; the slab in
// progress is flushed at end of body, so every record of a finished
// request is in the pipeline when Ingest returns.
// It returns how many records were accepted; on a decode error,
// records before the malformed one stay ingested (the stream was
// already live) and the error reports the rest were refused. With
// Config.ShedAfter set, a slab that cannot enter the feed within that
// bound sheds the request with ErrBacklog instead of stalling the
// client against a backed-up pipeline.
func (s *Server) Ingest(channel string, format trace.Format, r io.Reader) (int, error) {
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	if s.draining {
		return 0, ErrDraining
	}
	if !s.started.Load() {
		return 0, ErrNotStarted
	}
	dec, err := s.decoders.get(format, r)
	if err != nil {
		return 0, err
	}
	defer s.decoders.put(format, dec)
	// Request duration is the whole Ingest call; decode duration is the
	// same interval minus time spent parked on the feed channel — the
	// decode/backpressure split the ROADMAP's serve-vs-engine gap needs.
	reqStart := time.Now()
	var feedWait time.Duration
	defer func() {
		total := time.Since(reqStart)
		s.obs.ingest.Observe(total)
		if int(format) < len(s.obs.decode) {
			s.obs.decode[format].Observe(total - feedWait)
		}
	}()
	n := 0
	slab := s.pool.Get()
	defer func() { s.pool.Put(slab) }()
	var shedTimer *time.Timer
	defer func() {
		if shedTimer != nil {
			shedTimer.Stop()
		}
	}()
	flush := func() error {
		if len(slab) == 0 {
			return nil
		}
		var shed <-chan time.Time
		if s.cfg.ShedAfter > 0 {
			if shedTimer == nil {
				shedTimer = time.NewTimer(s.cfg.ShedAfter)
			} else {
				shedTimer.Reset(s.cfg.ShedAfter)
			}
			shed = shedTimer.C
		}
		parked := time.Now()
		defer func() { feedWait += time.Since(parked) }()
		select {
		case s.feed <- slab:
			n += len(slab)
			slab = s.pool.Get()
			return nil
		case <-s.runDone:
			return ErrStopped
		case <-shed:
			shedTimer = nil
			return ErrBacklog
		}
	}
	for {
		// Decode fills the slab in place up to its capacity, the batch
		// size; every call starts on an empty slab.
		var err error
		slab, err = dec.Decode(slab)
		if channel != "" {
			for i := range slab {
				slab[i].Channel = channel
			}
		}
		// Flush before reading n: the closure adds the slab's records to
		// the accepted count. Records before a malformed one are
		// accepted with its error.
		if ferr := flush(); ferr != nil || err == io.EOF {
			return n, ferr
		}
		if err != nil {
			return n, err
		}
	}
}

// Snapshot returns the currently served snapshot.
func (s *Server) Snapshot() *store.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// Reload installs a new snapshot: it is frozen into one immutable
// model.Model carrying the next operator epoch, future buses build
// from it, and every live bus engine gets a queued Swap of that same
// model landing at its next window boundary (in fleet mode, one
// Supervisor.SwapModel swaps every vehicle lane). It returns the buses
// that were swapped. The new model must be compatible with the served
// one (model.Compatible: same core configuration, gateway and response
// policy present in both or neither, same gateway rate window) — those
// are fixed at startup; changing them needs a restart. The reload is
// transactional: the model is committed only after every live engine
// accepted the swap, so a rejected reload leaves the server exactly as
// it was.
func (s *Server) Reload(snap *store.Snapshot) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := snap.BuildModel(s.model.Epoch() + 1)
	if err != nil {
		return nil, err
	}
	if err := model.Compatible(s.model, m); err != nil {
		return nil, fmt.Errorf("server: reload needs a restart: %w", err)
	}
	if s.cfg.Fleet != nil {
		if err := s.sup.SwapModel(m); err != nil {
			return nil, err
		}
		s.snap, s.model = snap, m
		s.log.Info("snapshot reloaded", "epoch", m.Epoch(), "mode", "fleet")
		return s.sup.Channels(), nil
	}
	buses := make([]string, 0, len(s.engines))
	for ch := range s.engines {
		buses = append(buses, ch)
	}
	sort.Strings(buses)
	// Engine.Swap only validates and stores (it never blocks on the
	// pipeline), so holding s.mu across the loop is safe and keeps the
	// factory from building a bus from a model the live engines
	// rejected. Every engine serves a model compatible with s.model, so
	// each shares the check above and a failure here aborts before any
	// state changed.
	for _, ch := range buses {
		if err := s.engines[ch].Swap(m); err != nil {
			return nil, fmt.Errorf("server: reload bus %q: %w", ch, err)
		}
	}
	// Adaptation restarts from the reloaded model: promoting artifacts
	// learned against the replaced template would resurrect it.
	for ch, ad := range s.adapters {
		if err := ad.Rebase(m); err != nil {
			return nil, fmt.Errorf("server: reload bus %q: %w", ch, err)
		}
	}
	s.snap, s.model = snap, m
	s.log.Info("snapshot reloaded", "epoch", m.Epoch(), "buses", len(buses))
	return buses, nil
}

// Model returns the immutable model generation currently served.
func (s *Server) Model() *model.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model
}

// Health returns per-bus health as the supervisor reports it — the
// same map /healthz and /stats expose.
func (s *Server) Health() map[string]engine.BusHealth {
	return s.sup.Health()
}

// AdaptStatus returns each adapting bus's counters (nil when
// adaptation is disabled).
func (s *Server) AdaptStatus() map[string]adapt.Status {
	if s.cfg.Adapt == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]adapt.Status, len(s.adapters))
	for ch, ad := range s.adapters {
		out[ch] = ad.Status()
	}
	return out
}

// adaptControl applies one admin action to the named bus's adapter, or
// to every adapter when channel is empty. A fleet-wide pause/resume
// also sets the default for buses that have not appeared yet, so a
// pause cannot be outrun by new traffic. The configure action adjusts
// the live promotion knobs (every, minWindows; zero leaves a knob
// unchanged) — per bus when channel names one, fleet-wide otherwise.
// It returns the buses acted on, sorted.
func (s *Server) adaptControl(action, channel string, every, minWindows int) ([]string, error) {
	if s.cfg.Adapt == nil {
		return nil, errors.New("server: adaptation is not enabled")
	}
	switch action {
	case "pause", "resume", "force":
	case "configure":
		if every <= 0 && minWindows <= 0 {
			return nil, errors.New("server: configure needs every and/or min_windows")
		}
	default:
		return nil, fmt.Errorf("server: unknown adapt action %q (want pause, resume, force or configure)", action)
	}
	s.mu.Lock()
	if channel == "" {
		switch action {
		case "pause":
			s.adaptPaused = true
		case "resume":
			s.adaptPaused = false
		}
	}
	targets := make(map[string]*adapt.Adapter, len(s.adapters))
	for ch, ad := range s.adapters {
		if channel == "" || ch == channel {
			targets[ch] = ad
		}
	}
	s.mu.Unlock()
	if channel != "" && len(targets) == 0 {
		return nil, fmt.Errorf("server: no adapting bus %q", channel)
	}
	buses := make([]string, 0, len(targets))
	for ch, ad := range targets {
		switch action {
		case "pause":
			ad.Pause()
		case "resume":
			ad.Resume()
		case "force":
			ad.Force()
		case "configure":
			if err := ad.Configure(every, minWindows); err != nil {
				return nil, fmt.Errorf("server: configure bus %q: %w", ch, err)
			}
		}
		buses = append(buses, ch)
	}
	sort.Strings(buses)
	return buses, nil
}

// CheckpointFile derives the per-bus checkpoint destination from the
// configured base path: "model.snap" serving bus "ms-can" checkpoints
// to "model.ms-can.snap". Per-bus files because adaptation is per bus:
// two buses drift independently and their models must not overwrite
// each other — which is also why the sanitization is injective:
// [A-Za-z0-9-] bytes pass through, every other byte (including '_',
// the escape introducer) becomes "_xx" hex, and the empty channel maps
// to "_" (which no escaped name can produce). Distinct channels can
// never share a file.
func CheckpointFile(base, channel string) string {
	var sb strings.Builder
	for i := 0; i < len(channel); i++ {
		switch b := channel[i]; {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9', b == '-':
			sb.WriteByte(b)
		default:
			fmt.Fprintf(&sb, "_%02x", b)
		}
	}
	sanitized := sb.String()
	if sanitized == "" {
		sanitized = "_"
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + sanitized + ext
}

// Checkpoint persists every adapting bus's latest promoted model as a
// version-2 snapshot (atomic write-rename per file, like any store
// save) and returns the files written, keyed by bus. Buses that have
// not appeared yet have nothing to checkpoint.
func (s *Server) Checkpoint() (files map[string]string, err error) {
	return s.checkpoint(true)
}

// checkpoint saves every adapting bus (all), or only those whose model
// differs from the one their file last saved successfully — the
// promotion-driven save, whose cost then follows what was promoted, not
// the bus count. A skipped bus's file keeps its model; only its
// adaptation counters are older than the live ones.
func (s *Server) checkpoint(all bool) (files map[string]string, err error) {
	if s.cfg.CheckpointPath == "" {
		return nil, errors.New("server: checkpointing is not configured")
	}
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	defer func() { s.ckErr = err }()
	s.mu.Lock()
	adapters := make(map[string]*adapt.Adapter, len(s.adapters))
	for ch, ad := range s.adapters {
		adapters[ch] = ad
	}
	s.mu.Unlock()
	files = make(map[string]string, len(adapters))
	var errs []error
	for ch, ad := range adapters {
		m, st := ad.Model()
		if !all && s.ckSaved[ch] == m {
			continue
		}
		ck, err := checkpointSnapshot(m, st)
		if err != nil {
			errs = append(errs, fmt.Errorf("server: checkpoint bus %q: %w", ch, err))
			continue
		}
		path := CheckpointFile(s.cfg.CheckpointPath, ch)
		// Keep the previous generation: the restart fallback ladder reads
		// path, then path+".prev", then the base snapshot, so one corrupt
		// write never strands a bus on the unadapted model. Best-effort —
		// a missing path is the first checkpoint, not a failure.
		if err := keepPrevious(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.log.Warn("checkpoint rotation failed", "bus", ch, "path", path, "err", err)
		}
		saveStart := time.Now()
		err = s.cfg.Fault.Hit(fault.CheckpointSave, ch)
		if err == nil {
			err = store.Save(path, ck)
		}
		s.obs.checkpoint.Observe(time.Since(saveStart))
		if err != nil {
			errs = append(errs, fmt.Errorf("server: checkpoint bus %q: %w", ch, err))
			s.log.Warn("checkpoint save failed", "bus", ch, "path", path, "err", err)
			continue
		}
		files[ch] = path
		s.ckSaved[ch] = m
		s.log.Debug("checkpoint saved", "bus", ch, "path", path)
	}
	return files, errors.Join(errs...)
}

// keepPrevious makes path+".prev" another name for the snapshot at
// path: a hard link under a hidden temporary name, renamed over .prev.
// Neither file is ever missing, so a reader of path (a restart, an
// /admin/reload of the file, an operator copying it) always finds a
// complete snapshot; the store.Save that follows replaces path by an
// atomic rename, leaving .prev on the old generation.
func keepPrevious(path string) error {
	tmp := filepath.Join(filepath.Dir(path), ".link-"+filepath.Base(path))
	os.Remove(tmp) //nolint:errcheck // a leftover from a crash, if any
	if err := os.Link(path, tmp); err != nil {
		return err
	}
	return os.Rename(tmp, path+".prev")
}

// checkpointSnapshot flattens one bus's latest promoted model back
// into a version-2 snapshot (store.FromModel) with the adaptation
// metadata attached. The result passes the same validation as any
// snapshot, so a restart can -load it and an /admin/reload can swap it
// in.
func checkpointSnapshot(m *model.Model, st adapt.Status) (*store.Snapshot, error) {
	return store.FromModel(m, &store.AdaptMeta{
		Windows:      st.Windows,
		Clean:        st.Clean,
		Promotions:   st.Promotions,
		LastBoundary: st.LastBoundary,
		Drift:        st.Drift,
	})
}

// AlertsTotal returns the number of alerts emitted since Start.
func (s *Server) AlertsTotal() uint64 { return s.alertsTotal.Load() }

// recordAlert is the supervisor's sink: count the alert, retain it in
// the bounded ring, and append it to the durable per-bus journal when
// one is configured. The supervisor serializes sink calls, so the
// journal needs no ordering of its own; the ring lock only fences
// /alerts readers. A full ring overwrites its oldest slot in place —
// no allocation, no copying of the surviving window.
func (s *Server) recordAlert(channel string, a detect.Alert) {
	s.alertsTotal.Add(1)
	ta := TaggedAlert{Channel: channel, Alert: a}
	s.alertsMu.Lock()
	if s.ring == nil {
		s.ring = make([]TaggedAlert, s.cfg.MaxAlerts)
	}
	if s.ringLen < len(s.ring) {
		s.ring[(s.ringHead+s.ringLen)%len(s.ring)] = ta
		s.ringLen++
	} else {
		s.ring[s.ringHead] = ta
		s.ringHead++
		if s.ringHead == len(s.ring) {
			s.ringHead = 0
		}
	}
	s.alertsMu.Unlock()
	if s.journal != nil && !s.journalFail.Load() {
		payload, err := json.Marshal(ta)
		if err == nil {
			err = s.journal.Append(channel, payload)
		}
		if err != nil {
			s.journalErrors.Add(1)
			if s.journalFail.CompareAndSwap(false, true) {
				s.noteDegraded("alert journal disabled: bus %q: %v", channel, err)
			}
		}
	}
	// End-to-end detection latency, after the alert is durably visible
	// (ring + journal) — ingest wall clock to alert emit.
	s.observeAlert(channel, a)
}

// Alerts returns the newest n alerts (all retained ones when n <= 0),
// oldest first.
func (s *Server) Alerts(n int) []TaggedAlert {
	s.alertsMu.Lock()
	defer s.alertsMu.Unlock()
	if n <= 0 || n > s.ringLen {
		n = s.ringLen
	}
	out := make([]TaggedAlert, n)
	for i := 0; i < n; i++ {
		out[i] = s.ring[(s.ringHead+s.ringLen-n+i)%len(s.ring)]
	}
	return out
}

// Stats aggregates the live per-bus statistics.
func (s *Server) Stats() (total engine.Stats, buses map[string]engine.Stats) {
	return s.sup.TotalStats(), s.sup.Stats()
}

// maxSnapshotBody bounds an /admin/reload request body: container
// header plus the store's own payload limit.
const maxSnapshotBody = store.MaxPayload + 128

// Handler returns the HTTP API. Mount it on any http.Server; the
// handler is safe for concurrent use. With Config.AdminToken set,
// every /admin/* route demands the bearer token; the read and ingest
// surface stays open (run the whole daemon behind TLS termination when
// the transport is untrusted — see doc.go).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		s.handleIngest(w, r, "")
	})
	mux.HandleFunc("POST /ingest/{channel}", func(w http.ResponseWriter, r *http.Request) {
		s.handleIngest(w, r, r.PathValue("channel"))
	})
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /alerts", s.handleAlerts)
	admin := func(h http.HandlerFunc) http.HandlerFunc {
		if s.cfg.AdminToken == "" {
			return h
		}
		want := []byte("Bearer " + s.cfg.AdminToken)
		return func(w http.ResponseWriter, r *http.Request) {
			got := []byte(r.Header.Get("Authorization"))
			if subtle.ConstantTimeCompare(got, want) != 1 {
				w.Header().Set("WWW-Authenticate", `Bearer realm="canids-admin"`)
				writeJSON(w, http.StatusUnauthorized, errorResponse{Error: "admin endpoints need the bearer token"})
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("POST /admin/reload", admin(s.handleReload))
	mux.HandleFunc("POST /admin/shutdown", admin(s.handleShutdown))
	mux.HandleFunc("GET /admin/adapt", admin(s.handleAdaptStatus))
	mux.HandleFunc("POST /admin/adapt", admin(s.handleAdaptControl))
	mux.HandleFunc("POST /admin/checkpoint", admin(s.handleCheckpoint))
	mux.HandleFunc("GET /admin/pprof/", admin(s.handlePprof))
	mux.HandleFunc("GET /admin/diag", admin(s.handleDiag))
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // headers are out; nothing left to report
}

type errorResponse struct {
	Error   string `json:"error"`
	Records int    `json:"records,omitempty"`
}

// parseFormat maps the ?format= query value to a trace format
// (candump when absent, matching the de-facto exchange format).
func parseFormat(r *http.Request) (trace.Format, error) {
	switch v := r.URL.Query().Get("format"); v {
	case "", "candump":
		return trace.FormatCandump, nil
	case "csv":
		return trace.FormatCSV, nil
	case "binary", "bin":
		return trace.FormatBinary, nil
	default:
		return 0, fmt.Errorf("unknown format %q (want candump, csv or binary)", v)
	}
}

// deadlineReader arms a fresh read deadline on the underlying
// connection before every body read, so the budget bounds client
// stalls, not total upload time — a steady heavy upload is welcome, a
// slow-loris body is not. Transports without deadline support (e.g.
// httptest recorders) degrade to unbounded reads.
type deadlineReader struct {
	r           io.Reader
	rc          *http.ResponseController
	d           time.Duration
	unsupported bool
}

func (dr *deadlineReader) Read(p []byte) (int, error) {
	if !dr.unsupported {
		if err := dr.rc.SetReadDeadline(time.Now().Add(dr.d)); err != nil {
			dr.unsupported = true
		}
	}
	return dr.r.Read(p)
}

// readTracker latches the first non-EOF error the body reader returns.
// The decoders wrap read failures in their own parse errors, so the
// handler needs the untranslated cause to pick the right status code.
type readTracker struct {
	r   io.Reader
	err error
}

func (t *readTracker) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err != nil && err != io.EOF && t.err == nil {
		t.err = err
	}
	return n, err
}

// retryAfterHint derives the 429 Retry-After from the shed bound and
// the observed backlog: the client already waited ShedAfter without a
// slot opening, so ShedAfter (rounded up to a whole second) is the
// floor, scaled up by how full the feed still is — a fully backed-up
// feed doubles the hint. Bounded so a misconfigured ShedAfter cannot
// tell clients to go away for hours.
func (s *Server) retryAfterHint() string {
	d := s.cfg.ShedAfter
	if d <= 0 {
		d = time.Second
	}
	if c := cap(s.feed); c > 0 {
		d += time.Duration(float64(d) * float64(len(s.feed)) / float64(c))
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return strconv.Itoa(secs)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, channel string) {
	format, err := parseFormat(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// Advisory per-channel quota check: the demux sheds over-quota
	// records deterministically either way; answering 429 up front
	// spares a client the upload. Only the per-channel ingest route can
	// know which quota applies before decoding.
	if channel != "" && s.cfg.QuotaFrames > 0 && s.sup.OverQuota(channel) {
		w.Header().Set("Retry-After", s.retryAfterHint())
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error: fmt.Sprintf("channel %q is over its ingest quota (%d frames per %v)",
				channel, s.cfg.QuotaFrames, s.cfg.QuotaWindow)})
		return
	}
	body := io.Reader(r.Body)
	if s.cfg.MaxBody > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	}
	if s.cfg.IngestTimeout > 0 {
		rc := http.NewResponseController(w)
		body = &deadlineReader{r: body, rc: rc, d: s.cfg.IngestTimeout}
		// Clear the deadline so writing the response is not bounded by
		// the last read's budget.
		defer rc.SetReadDeadline(time.Time{}) //nolint:errcheck // unsupported transports never had one
	}
	tracker := &readTracker{r: body}
	n, err := s.Ingest(channel, format, tracker)
	var maxBytes *http.MaxBytesError
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]any{"records": n})
	case errors.Is(err, ErrBacklog):
		w.Header().Set("Retry-After", s.retryAfterHint())
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error(), Records: n})
	case errors.As(tracker.err, &maxBytes):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("body exceeds the %d byte ingest limit", maxBytes.Limit), Records: n})
	case errors.Is(tracker.err, os.ErrDeadlineExceeded):
		writeJSON(w, http.StatusRequestTimeout, errorResponse{
			Error: fmt.Sprintf("body read stalled past %v", s.cfg.IngestTimeout), Records: n})
	case errors.Is(err, ErrDraining), errors.Is(err, ErrStopped), errors.Is(err, ErrNotStarted):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error(), Records: n})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), Records: n})
	}
}

// handleHealthz is the liveness probe with crash-isolation semantics: a
// fleet with a dead bus answers 503 ("degraded") so orchestration can
// see the partial outage, while a bus that is merely restarting or
// stalled keeps 200 but flips the status to "degraded" — the daemon is
// still doing its job on every other bus.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.ingestMu.RLock()
	draining := s.draining
	s.ingestMu.RUnlock()
	health := s.sup.Health()
	anyDead, anyHurt := false, false
	for _, h := range health {
		switch h.State {
		case engine.BusDead:
			anyDead = true
		case engine.BusRestarting, engine.BusStalled:
			anyHurt = true
		}
	}
	status, code := "ok", http.StatusOK
	switch {
	case draining:
		status = "draining"
	case anyDead:
		status, code = "degraded", http.StatusServiceUnavailable
	case anyHurt:
		status = "degraded"
	}
	resp := map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.startTime).Seconds(),
		"epoch":          s.Model().Epoch(),
		"buses":          s.sup.Channels(),
	}
	if len(health) > 0 {
		resp["bus_health"] = health
	}
	if notes := s.DegradedNotes(); len(notes) > 0 {
		resp["degraded"] = notes
	}
	writeJSON(w, code, resp)
}

type statsResponse struct {
	UptimeSeconds     float64                     `json:"uptime_seconds"`
	Epoch             uint64                      `json:"epoch"`
	AlertsTotal       uint64                      `json:"alerts_total"`
	Total             engine.Stats                `json:"total"`
	Buses             map[string]engine.Stats     `json:"buses"`
	Health            map[string]engine.BusHealth `json:"health,omitempty"`
	Degraded          []string                    `json:"degraded,omitempty"`
	CheckpointRetries uint64                      `json:"checkpoint_retries,omitempty"`
	Adapt             map[string]adapt.Status     `json:"adapt,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	total, buses := s.Stats()
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds:     time.Since(s.startTime).Seconds(),
		Epoch:             s.Model().Epoch(),
		AlertsTotal:       s.AlertsTotal(),
		Total:             total,
		Buses:             buses,
		Health:            s.sup.Health(),
		Degraded:          s.DegradedNotes(),
		CheckpointRetries: s.CheckpointRetries(),
		Adapt:             s.AdaptStatus(),
	})
}

func (s *Server) handleAdaptStatus(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Adapt == nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: "adaptation is not enabled"})
		return
	}
	resp := map[string]any{
		"enabled":      true,
		"checkpointed": s.cfg.CheckpointPath != "",
		"buses":        s.AdaptStatus(),
	}
	if e := s.lastCheckpointError(); e != "" {
		resp["last_checkpoint_error"] = e
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAdaptControl(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	action := q.Get("action")
	every, err := queryInt(q.Get("every"))
	if err == nil {
		var minWindows int
		minWindows, err = queryInt(q.Get("min_windows"))
		if err == nil {
			var buses []string
			buses, err = s.adaptControl(action, q.Get("channel"), every, minWindows)
			if err == nil {
				resp := map[string]any{"action": action, "buses": buses}
				if action == "configure" {
					if every > 0 {
						resp["every"] = every
					}
					if minWindows > 0 {
						resp["min_windows"] = minWindows
					}
				}
				writeJSON(w, http.StatusOK, resp)
				return
			}
		}
	}
	code := http.StatusBadRequest
	if s.cfg.Adapt == nil {
		code = http.StatusConflict
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// queryInt parses an optional non-negative integer query value ("" is
// zero: knob untouched).
func queryInt(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("server: bad count %q", v)
	}
	return n, nil
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	files, err := s.Checkpoint()
	if err != nil {
		code := http.StatusInternalServerError
		if s.cfg.CheckpointPath == "" {
			code = http.StatusConflict
		}
		writeJSON(w, code, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"files": files})
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad n %q", v)})
			return
		}
		n = parsed
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  s.AlertsTotal(),
		"alerts": s.Alerts(n),
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	snap, err := store.Decode(http.MaxBytesReader(w, r.Body, maxSnapshotBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	buses, err := s.Reload(snap)
	if err != nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"swapped_buses": buses,
		"note":          "live buses swap at their next window boundary; new buses serve the new snapshot",
	})
}

type shutdownResponse struct {
	AlertsTotal uint64                  `json:"alerts_total"`
	Total       engine.Stats            `json:"total"`
	Buses       map[string]engine.Stats `json:"buses"`
	Error       string                  `json:"error,omitempty"`
}

func (s *Server) handleShutdown(w http.ResponseWriter, r *http.Request) {
	err := s.Drain()
	total, buses := s.Stats()
	resp := shutdownResponse{AlertsTotal: s.AlertsTotal(), Total: total, Buses: buses}
	code := http.StatusOK
	if err != nil {
		resp.Error = err.Error()
		if errors.Is(err, ErrNotStarted) {
			code = http.StatusServiceUnavailable
		} else {
			code = http.StatusInternalServerError
		}
	}
	writeJSON(w, code, resp)
}
