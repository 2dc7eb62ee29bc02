// Package canids is a reproduction of "An Entropy Analysis based
// Intrusion Detection System for Controller Area Network in Vehicles"
// (Wang, Lu, Qu — IEEE SOCC 2018): a bit-level-entropy intrusion
// detection system for CAN, together with the complete substrate needed
// to evaluate it — a bit-accurate CAN frame codec, a discrete-event bus
// simulator with bitwise arbitration, a synthetic Ford-Fusion-like
// vehicle traffic profile, the paper's four injection-attack scenarios,
// malicious-ID inference, and the two comparison baselines (Müter
// message entropy and Song interval analysis).
//
// Layout:
//
//	internal/core        the paper's bit-entropy IDS (template, detector)
//	internal/infer       malicious-ID inference (rank selection)
//	internal/can         CAN 2.0 frames, CRC-15, bit stuffing, codecs
//	internal/bus         discrete-event CAN bus simulator
//	internal/vehicle     Fusion-like ECU fleet and driving scenarios
//	internal/attack      FI / SI / MI-k / WI injection campaigns
//	internal/baseline    Müter [8] and Song [11] comparison detectors
//	internal/entropy     bit-slice counters and entropy math
//	internal/detect      shared detector interface and alert types
//	internal/gateway     bus gateway filter: whitelist, rate limits, blocklist
//	internal/response    alerts → inference → gateway blocks (prevention)
//	internal/metrics     Ir, Dr, hit rate, confusion counts
//	internal/trace       candump / CSV / binary log formats + streaming decoders (Next, and Decode into a caller's slab), jitter-horizon reordering
//	internal/dataset     real-world CAN capture dialects (HCRL, survival, OTIDS): sniffing, streaming importers, writers
//	internal/sim         deterministic discrete-event scheduler, fast seeded RNG
//	internal/engine      streaming detection + prevention engine (one lane per bus), multi-bus supervisor
//	internal/engine/scenario  named scenario matrix (profiles × drives × attacks)
//	internal/model       immutable epoch-numbered model value (config + template + policies), the single swap unit
//	internal/store       versioned, checksummed model snapshots (atomic save, strict load, v1→v2 migration)
//	internal/server      long-running HTTP serving daemon (ingest, stats, hot reload, adaptation, checkpoints)
//	internal/adapt       online adaptation: clean-window learning, boundary-pinned promotions
//	internal/fault       deterministic fault injection (panic/error/stall at named seams)
//	internal/journal     append-only CRC-framed binary journals (rotation, torn-tail recovery)
//	internal/experiments one runner per paper table and figure
//	cmd/...              cangen, canattack, canids, experiments
//	examples/...         quickstart, livebus, offline, sweep, streaming, prevention, serving, adaptation
//
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation; see EXPERIMENTS.md for the measured results.
//
// # Streaming engine
//
// internal/engine turns the one-shot detector into a serving subsystem:
// a Source abstraction feeds records from trace files (all three log
// formats decode incrementally), live channels, or generators. A bus is
// built one way, engine.NewFromModel, from an immutable model.Model;
// every bus runs one lane, a sequential per-record pipeline that counts
// each record's identifier bits into the open window, scores every
// closed window with the model's configuration and template through the
// scoring function the sequential detector's own window close calls
// (core.ScoreWindow), and releases the window's bit-entropy
// alert together with the optional Müter/Song baselines' alerts
// (observed in the lane too) in one deterministic (WindowEnd, detector
// rank) order. The engine's output is bit-identical to a sequential
// core.Detector — pinned by TestEngineMatchesSequential — and the whole
// suite holds under go test -race and -shuffle=on (ci.sh runs both).
//
// internal/engine/scenario is the workload matrix behind it: vehicle
// profiles × driving behaviours × attack campaigns composed into named,
// seeded scenarios ("fusion/idle/SI-100") that replay bit-for-bit.
// `canids -list-scenarios` prints the catalogue, `canids -watch
// -scenario <name> [-baselines]` streams one live with periodic
// metrics, and examples/streaming demonstrates end to end that a live
// run and a replay of the recorded trace emit the same stream.
//
// # Prevention
//
// The engine also closes the paper's prevention loop ("the malicious
// messages containing those IDs would be discarded or blocked"): when
// the model carries gateway and response policy, the lane builds an
// internal/gateway.Gateway from it as a pre-filter (whitelist, learned
// rate limits, dynamic blocklist — all goroutine-safe) and an
// internal/response.Responder bound to that gateway; each window's
// alert feeds the responder, whose inference quarantines the top
// suspects, and the lane responds at the window boundary, before it
// classifies the next record, so blocks land at a deterministic stream
// position. Inference ranks against an infer.Index built once per
// response policy and shared by every lane serving it, into scratch the
// responder owns: a warm alert allocates nothing, and the responder
// keeps no history (engine.Config.OnAction reports each action in
// stream order). The result — alert stream, dropped-frame set, the
// actions taken — is bit-identical to a sequential
// classify→observe→respond loop (TestEnginePreventionMatchesSequential,
// under -race).
// engine.Supervisor serves multi-bus captures with one engine (and
// per-bus policy state) per channel. `canids -watch -prevent
// [-whitelist] [-multibus]` merges its flags (and a -load snapshot's
// policy) into one snapshot, serves the model built from it — the very
// snapshot -save writes — and scores prevention against scenario ground
// truth (attack frames blocked vs legitimate collateral drops), reading
// each bus's blocks and quarantines through Engine.Responder and
// Engine.Gateway; examples/prevention shows the loop stopping a live
// injection mid-stream.
//
// # Serving
//
// The paper's train-offline/detect-online split becomes a deployment
// lifecycle: train once on attack-free driving, persist the artifacts,
// serve detection forever without retraining.
//
// internal/store is the persistence layer: one store.Snapshot carries
// the detector configuration, the golden template, the legal identifier
// pool, gateway policy (whitelist + learned rate budgets) and response
// policy, framed as magic + version + payload length + SHA-256 over a
// canonical-JSON payload. Saves are atomic (write temp, sync, rename);
// loads are strict — truncation, version skew, checksum mismatch,
// unknown fields and semantically invalid artifacts all error, never
// panic (FuzzStoreDecode). A loaded snapshot drives a detector to a
// bit-identical alert stream versus the never-serialized original
// (TestSnapshotRoundTripAlerts), because JSON round-trips float64
// exactly. `canids -train -save` / `-watch -scenario -save` produce
// snapshots; `-detect/-watch/-serve -load` consume them, with gateway
// budgets injected instead of relearned (gateway.Config.Budgets).
//
// internal/server is the daemon behind `canids -serve`: an HTTP facade
// over engine.Supervisor with per-bus ingest (POST /ingest/{channel},
// streaming bodies in all three trace formats), read endpoints
// (/alerts, /stats, /healthz) and two admin verbs. POST /admin/reload
// hot-swaps a snapshot: every live engine queues the new model.Model
// (engine.Swap) that the lane installs at its next window boundary —
// the same point where prevention's blocks land — so each window is
// scored wholly under one template, no frames are dropped, and the
// resulting alert stream is bit-identical to a sequential detector that
// switches templates at the same boundary
// (TestEngineHotSwapMatchesSequential, under -race).
// Template, gateway budgets/whitelist and responder policy all install
// in the lane at that boundary, so the whole policy set changes
// at one deterministic stream position. A reload must keep the served
// model's structure — model.Compatible: same core configuration,
// gateway and response policy present in both or neither, same gateway
// rate window — the one rule Engine.Swap, Supervisor.SwapModel,
// adaptation promotions and the checkpoint-restore ladder also apply.
// POST /admin/shutdown
// drains: ingest stops, final partial windows flush like the offline
// detector's Flush, and the response carries the final counts — the
// invariant ci.sh's serve smoke leg scripts against (served alert count
// == offline -detect run on the same capture and snapshot).
//
// # Online adaptation
//
// A daemon that serves for months meets drift the training capture
// never saw — new ECUs after a firmware update, seasonal bus load,
// changed duty cycles. internal/adapt closes that loop without an
// operator: an Adapter rides the engine's adaptation hook
// (engine.Config.Adapt), classifies every closed detection window —
// clean means alert-free, gateway-pass, dense enough to score — and
// learns only from the clean ones: per-identifier rate peaks feed a
// bounded ring (gateway.RateLearner, the incremental form of the
// LearnRates math, pinned equal by TestRateLearnerMatchesBatch), and
// the template's per-bit means are EWMA-refreshed while its trained
// thresholds stay fixed. On a clean-window cadence the adapter promotes
// the re-learned budgets and refreshed template through the same
// engine.Swap window-boundary mechanism a hot reload uses, so the
// adapted run stays deterministic: the alert stream is bit-identical to
// a sequential classify→observe→adapt loop swapping the same models at
// the same boundaries, under -race (TestEngineAdaptMatchesSequential).
//
// `canids -serve -adapt` arms one adapter per bus; /admin/adapt serves
// the counters and the pause/resume/force controls, and /stats carries
// the per-bus adaptation section. With -checkpoint, every promotion
// persists the buses whose adapted model changed since their last save
// (and the final drain, like /admin/checkpoint, persists every bus) as
// a version-2 snapshot — the first snapshot schema evolution: format 2 adds
// adaptation provenance (windows observed, promotions, last promotion
// boundary, drift), and store.Decode migrates format-1 files in code so
// every pre-existing snapshot still loads bit-identically
// (TestSnapshotV1MigratesToV2). Between a bus's promotions its file's
// adaptation counters lag the live ones; the model, which is all a
// restart reads, does not. A restarted daemon -loads the
// checkpoint and the learned budgets survive, which ci.sh's adapt smoke
// leg scripts end to end. The admin surface hardens accordingly:
// Config.AdminToken puts every /admin/* verb behind a bearer token
// (401 otherwise), and the daemon terminates TLS in process when
// handed a key pair (`-tls-cert`/`-tls-key`, TLS 1.2+, serve-only
// flags validated as a pair) — carrying the token over an untrusted
// transport no longer requires an external terminator, though a
// reverse proxy or mesh in front still works for plain-HTTP
// deployments. Live buses can also be retuned without a restart:
// POST /admin/adapt?action=configure&every=N&min_windows=M[&channel=b]
// adjusts a bus's promotion cadence and warm-up on the fly, applied
// between windows on the lane's goroutine so determinism holds.
//
// # Fault tolerance
//
// A daemon that protects several buses must not let one bus's failure
// take down the rest. engine.Supervisor runs every bus engine under
// panic recovery: a panicking or erroring bus is torn down and
// restarted from its last checkpoint (or the base snapshot) with capped
// exponential backoff, while the other buses keep streaming — their
// alert output stays bit-identical to an undisturbed run, pinned by the
// chaos suite under -race. Frames that arrive while a
// bus is down are not silently dropped: the supervisor counts every one
// in Stats.Lost, so accepted == served + lost reconciles exactly after
// a drain. A bus that exhausts its restart budget is marked dead —
// /healthz answers 503 "degraded" and the daemon keeps serving the
// survivors instead of crashing.
//
// Checkpoint writes keep the previous generation as a .prev file (a
// hard link, so the checkpoint path never goes missing while the new
// one is written) and retry failures with capped backoff; a restart that finds its
// checkpoint corrupt falls back newest-valid-then-base, and every
// degradation on that ladder is surfaced in /stats and /healthz rather
// than logged and lost. The ingest surface hardens the same way:
// per-read deadlines (408), a configurable body cap (413), and a
// bounded feed backlog that sheds load with 429 + Retry-After when the
// engines cannot keep up, instead of letting one slow client wedge the
// daemon.
//
// All of it is driven by internal/fault, a deterministic fault-injection
// harness: an Injector armed from a compact spec ("engine.frame[ms-can]:
// panic@500;checkpoint.save:error@1") fires panics, errors, or stalls at
// named seams threaded through the engine and server — the Nth frame of
// a bus, a template swap install, a checkpoint write. Faults are exact,
// not probabilistic, so every chaos test replays bit-for-bit. `canids
// -serve -faults <spec>` arms the same plan against the real daemon,
// which is how ci.sh's chaos smoke leg scripts the whole story: an
// injected checkpoint write failure retried to disk, two mid-ingest
// engine panics absorbed by checkpoint restarts, /healthz dipping to
// degraded and recovering, and final counters that reconcile to the
// frame.
//
// # Observability and incident replay
//
// A long-running daemon is operated, not watched: GET /metrics exports
// every counter the server already keeps — per-bus frames, drops,
// windows, alerts, lost frames, restarts, one-hot health state, and the
// adaptation and checkpoint-retry totals — in the Prometheus text
// exposition format, hand-rolled (the repo takes no dependencies) with
// sorted buses and shortest-float samples so identical state scrapes to
// identical bytes. The counters reconcile exactly with /stats:
// accepted == frames + lost per bus after a drain, pinned by
// TestMetricsReconcileAfterChaos against a fault-injected run.
//
// Alerts additionally persist to disk: internal/journal is an
// append-only, length-prefixed, CRC-32-checked binary journal with size
// rotation and torn-tail recovery (a crash mid-write truncates back to
// the last intact entry on reopen, never discards one), and
// Config.JournalDir (`canids -serve -journal <dir>`) appends every
// alert to one journal per bus beside the in-memory ring. The /alerts
// ring itself is a true circular buffer — steady state retains alerts
// with zero allocations (TestAlertRingSteadyStateAllocs).
//
// `-serve -record <dir>` turns an incident into a test case: a tap on
// the supervisor's demux seam captures the exact post-demux record
// stream — per-bus content, order, and batch boundaries — plus the
// served snapshot (checksummed) and every determinism-relevant knob in
// a manifest, with the alert journal defaulted into the capture.
// `canids -replay <dir>` rebuilds the same pipeline from the manifest,
// pushes the captured stream back through the same server path, and
// verifies the replayed alert journal equals the recorded one byte for
// byte — the engine's per-bus determinism guarantee made operational
// (TestRecordReplayDeterminism under -race, and ci.sh's
// observability smoke leg against the real daemon). The contract covers
// clean-drain runs; a crash-restart loses frames the capture still
// carries, so those replays run but may legitimately diverge. Each
// captured slab is one compact entry (trace.AppendCapture: the channel
// once, then per record a varint time delta, a flags byte carrying the
// DLC, a varint identifier, the data and the source only where it
// changes — about 14 bytes a frame against 35 in the CTR1 layout that
// version-1 captures used, which replay still reads). The capture
// journal commits in groups: entries of one bus are staged and written
// with one call when the bus changes, the group reaches 256 KiB, or the
// serve feed runs dry — about one write per ingest request — so a crash
// of the recorder loses at most the unflushed group. The alert journal
// stays write-through, one write per alert.
//
// # Latency & profiling
//
// Counters say how much; latency histograms say how long. internal/hist
// is a dependency-free, fixed-bucket log-linear histogram — base-2 with
// two sub-buckets per octave, first bound 4.096µs, last finite bound
// ~68.7s — whose Observe is one atomic add per bucket plus one for the
// sum: allocation-free, so it rides the engine hot path without
// disturbing the <0.25 allocs/frame guards, and a nil *Histogram is a
// valid no-op receiver, so timing is a nil check when disabled. Bucket
// bounds render from strings precomputed at init, making the Prometheus
// exposition byte-stable for equal state (TestMetricsHistogramByteStable
// scrapes twice and diffs).
//
// /metrics exports five histogram families, each with a counter it must
// agree with at quiescence: canids_ingest_request_seconds (one
// observation per HTTP ingest call) and canids_ingest_decode_seconds
// per wire format (request time minus feed backpressure);
// canids_pipeline_latency_seconds{bus} — the lane's wall time from
// closing a window to that window being scored and its alert handled,
// one observation per closed window, so _count equals
// canids_bus_windows_total;
// canids_detect_latency_seconds{bus} — end-to-end detection latency
// from record ingest to alert emit, resolved through a bounded
// per-bus watermark ring pairing stream time with arrival wall time at
// the demux tap, one observation per alert, so _count equals
// canids_bus_alerts_total (fleet mode included; the pipeline histograms
// ride per-bus engine builds, and fleet lanes carry none); and
// canids_checkpoint_save_seconds. The timing is side-band only: wall
// stamps never branch the pipeline, so the deterministic alert stream
// and record/replay bit-identity are untouched (the -race parity suites
// pin this).
//
// The daemon's own voice is structured: log/slog on stderr (stdout
// stays reserved for the mode transcripts scripts parse), with
// -log-level debug|info|warn|error and -log-format text|json, and
// per-bus/epoch attrs on engine restarts, model installs, checkpoint
// saves and degradations. For the questions counters cannot answer,
// the full net/http/pprof surface is mounted at /admin/pprof/ behind
// the same bearer token as every other admin route (unauthenticated
// requests get 401 before any profiling runs), alongside Go runtime
// gauges (canids_goroutines, canids_heap_alloc_bytes, ...) on
// /metrics. GET /admin/diag captures the whole observable surface in
// one shot — stats, metrics, health, recent alerts, degradation notes,
// redacted effective config, build info, full goroutine dump — as a
// tar.gz incident bundle, so "grab diagnostics before restarting" is
// one curl (TestDiagBundle, and ci.sh fetches one through auth).
//
// # Model & fleet serving
//
// Everything a detector serves with — core config, golden template,
// legal identifier pool, gateway policy (whitelist + rate budgets),
// response policy — is one immutable internal/model.Model value,
// stamped with a monotonic epoch. model.New validates the whole set
// once at construction; derivations (WithTemplate, WithGatewayBudgets,
// WithEpoch) share every unchanged part structurally, so deriving an
// adapted model from a 64-bit-template base copies kilobytes, not the
// model. All four ways a model reaches an engine — initial build from
// a snapshot, /admin/reload, an adapt promotion, a checkpoint restore
// — construct the same type and funnel through the same install:
// engine.Swap(*model.Model) queues it, and the lane installs it
// whole at the next window boundary (template, gateway policy,
// responder policy in one step), so every window is scored under
// exactly one epoch. The serving epoch is observable end to end:
// /stats carries it, /metrics exports canids_serving_epoch and
// per-bus canids_model_epoch{bus} gauges, and ci.sh's fleet smoke leg
// asserts a single reload converges every lane to one epoch.
//
// Because the model is immutable, the hot paths need no policy locks.
// gateway.Policy is immutable and shared by every gateway serving the
// model; it keeps 11-bit identifiers in dense tables, so Classify costs
// two table reads and a count. A gateway's mutable state — quarantine
// deadlines, rate-window counters, verdict counts — belongs to the
// goroutine that classifies, which also runs the responder and installs
// models (the one running the bus's lane: Run's caller or a fleet
// host), so it takes no lock either. response.Responder reads its
// policy through an atomic.Pointer snapshot. The steady-state allocation guard (<0.25 allocs/frame)
// covers the serve path, candump bodies and an armed fleet included.
//
// The shared model is what makes fleet serving cheap. `canids -serve
// -fleet K` multiplexes every vehicle (channel) onto K host engines by
// rendezvous hashing (the host maximising a splitmix64-finalized
// FNV-64a of name and host), so a vehicle's frames always reach the
// same host and per-vehicle detector state stays exact. Fleet hosts run
// under the same supervision as classic buses: a crashed host restarts
// with an empty lane table, its vehicles respin on their next frame,
// and frames arriving while it is down are counted lost per vehicle.
// A fleet lane is the same lane an Engine runs, so -faults seams
// target one vehicle the way they target one classic bus. Lanes spin
// up lazily on a vehicle's first frame and, with -fleet-idle, tear
// down after idle stream time
// — a returning vehicle's lane skips ahead to its next frame exactly
// like a dedicated engine crossing the same gap, so multiplexed alert
// streams are bit-identical to one-engine-per-vehicle under -race
// (TestFleetMatchesDedicatedEngines,
// TestFleetPreventionMatchesDedicated, TestFleetIdleTeardownLifecycle).
// Idleness is judged against the newest record time of any vehicle, so
// a vehicle whose clock lags the fleet by IdleAfter or more is torn
// down after every input slab; that caveat is a tested contract
// (TestFleetLaggingClockTeardown, see internal/engine's fleet.go).
// Per-vehicle ingest quotas (-quota-frames per -quota-window) shed
// floods deterministically at the demux — counted in Stats.Shed and
// canids_bus_shed_total, answered 429 + Retry-After at HTTP once the
// gate latches — so one chatty vehicle cannot starve the fleet. The
// marginal cost per vehicle drops from ~280 kB (a full engine + model
// copy each) to ~15 kB (a lane over shared engines and one shared
// model): a 100-vehicle serve runs in ~14 MB RSS where the
// one-engine-per-bus shape needs ~40 MB — the measured transcript is
// in EXPERIMENTS.md.
//
// # Dataset evaluation
//
// Every number above is measured against the in-repo simulator;
// internal/dataset confronts the detector with real traffic dialects.
// Streaming importers normalize the public CAN capture formats — the
// HCRL car-hacking CSV family (one column per payload byte, R/T ground
// truth), the survival-analysis CSV variant (contiguous hex payload),
// and OTIDS-style candump-like logs (keyword-tagged, unlabeled) — into
// trace.Record streams. Each importer is a trace.Decoder, hence an
// engine.Source: files are never buffered whole. Dialect quirks are
// handled deterministically: absolute epoch timestamps are rebased to
// trace-relative time; out-of-order rows are sorted within a jitter
// horizon (trace.ReorderDecoder — opt-in, the plain decoders keep their
// strict file-order behavior); DLC/payload mismatches are repaired
// toward the bytes actually present; attack labels in all their
// spellings (R/T, 0/1, Normal/Attack) fold into Record.Injected. The
// accounting is exact: Stats guarantees imported + skipped == rows,
// with repaired/late sub-counts (FuzzDatasetDecode pins the invariants
// on arbitrary input).
//
// `canids -eval <dir|file> [-eval-split 0.3] [-eval-dialect d]` is the
// evaluation harness on top: it sniffs each capture's dialect (majority
// vote over the head; -list-dialects enumerates the grammars), trains
// the core config + template + gateway budgets on the attack-free part
// — a labeled clean capture trains wholly, otherwise each file's clean
// prefix capped at the split fraction — streams the remainder through
// the engine, and prints a per-capture detection/FP/latency table next
// to Table1 (shared renderer: experiments.RenderTable). The whole
// transcript is a pure function of the capture bytes and flags:
// bit-identical from run to run (TestEvalShardDeterminism under
// -race, plus ci.sh's dataset-eval smoke leg, which also reconciles the
// accounting lines exactly). The committed fixtures under
// internal/dataset/testdata are generated by `cangen -dialect
// hcrl|survival|otids [-attack SI ...] [-epoch N]` and pinned
// byte-for-byte by TestDialectFixturesPinned, so the eval path runs
// hermetically with no downloads.
//
// # Performance
//
// The paper's core claim is that bit-level entropy detection is
// lightweight: constant per-message cost, constant memory. The
// implementation enforces that claim with zero-allocation hot paths,
// guarded by testing.AllocsPerRun regression tests:
//
//   - can.Frame.BitLength/StuffedBitLength computes the exact stuffed
//     on-wire length arithmetically (packed bit words, table-driven
//     CRC-15, run-length stuff counting) without materializing the wire
//     bit slice; the bus calls it once per transmission and caches it
//     per TX request;
//   - sim.Scheduler stores events by value in a 4-ary heap, so At/After/
//     Every schedule without allocating once the queue is warm;
//   - entropy.BitCounter.Add/Remove share one LSB-first loop over fixed
//     counters, and MeasureInto fills caller-provided entropy and
//     probability vectors in one fused pass;
//   - entropy.Binary serves mid-range probabilities from a quantized
//     lookup table (within 1e-9 of the exact two-log form, exact at the
//     nodes; BinaryExact is the reference and the near-edge fallback);
//   - core.Detector.Observe scores windows into reusable scratch
//     vectors and only builds per-bit alert detail when a threshold is
//     actually violated — a clean record stream is 0 allocs/op;
//   - sim.NewRand seeds a bit-exact replica of math/rand's generator
//     ~3x faster than the stdlib path (8-lane Lehmer chain with a
//     Mersenne fold; rngCooked recovered from public outputs at init) —
//     the simulator seeds one source per scheduled message, 223 per
//     vehicle attach;
//   - the lane's per-frame path (classify, window walk,
//     BitCounter.Add) allocates nothing; TestEngineSteadyStateAllocs
//     bounds a whole run at <0.25 allocs/frame;
//   - serve ingest batches decoded records into recycled
//     []trace.Record slabs (engine.RecordPool) through the feed channel
//     and the supervisor demux — one channel operation per batch
//     instead of per record lifted BenchmarkServeIngest from ~1.9M to
//     ~2.5M frames/s (BENCH_4 → BENCH_5);
//   - the CTR1 binary record codec is allocation-free both ways once
//     warm: trace.BinaryDecoder parses every record whole in its read
//     buffer in place, straight into the caller's slot, and advances
//     the buffer once per batch (a record straddling the buffer's end
//     is made whole first), interning Channel/Source through a bounded
//     per-decoder table; trace.AppendBinary (built on
//     can.Frame.AppendBinary, an encoding.BinaryAppender) encodes into a
//     caller's buffer. TestBinaryCodecSteadyStateAllocs pins both at 0 allocs per
//     record, and TestIngestSteadyStateAllocs extends the engine's
//     <0.25 allocs/frame bound to a warm Server.Ingest of binary bodies
//     (~0.03 measured, 6.0 before). On servebench upload-binary this
//     moved ~3.0M to ~4.4M frames/s and 6.07 to 0.076 allocs/frame
//     (EXPERIMENTS.md, Performance);
//   - every format's decoder has a batch Decode that fills a caller's
//     []trace.Record slab in place; Next and Decode run the same record
//     parser. Server.Ingest runs one loop for
//     all formats: Decode into the engine.RecordPool slab it holds,
//     overwrite Channel when the route names a bus, flush the full slab.
//     Names are interned through an open-addressed table (no map
//     lookup per name). BenchmarkDecode reports both legs per format
//     (binary, warm, medians of 10 runs on a 2-vCPU VM: Next 160 → 97,
//     Decode 75 ns/record); on servebench upload-binary ingest_p99_ms
//     fell from 1.58 to 0.76 ms and frames/s rose from 3.2M to 4.9M
//     (EXPERIMENTS.md, Performance).
//
// The experiment pipeline (internal/experiments) memoizes the clean
// training traffic and golden template per parameter set, caches
// completed simulation runs (every run is a pure function of its
// seeds), and fans independent sweep points across a bounded worker
// pool with pre-derived seeds — results are bit-identical to a
// sequential pass at the same seed. ./ci.sh runs the tier-1 gate plus a
// benchmark smoke pass and records the numbers in BENCH_*.json; see
// EXPERIMENTS.md for how to compare runs with benchstat.
package canids
