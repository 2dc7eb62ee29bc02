// Package adapt is the online-learning subsystem: it rides the
// streaming engine's adaptation hook (engine.Config.Adapt), accumulates
// statistics from live windows the detector scored clean — alert-free,
// gateway-pass, dense enough to score — and periodically promotes a
// re-learned model through the engine's window-boundary swap: gateway
// rate budgets re-derived by the same math as gateway.LearnRates over a
// bounded ring of recent clean windows, and (optionally) a golden
// template whose per-bit means are EWMA-refreshed toward the live
// traffic. A long-running `canids -serve -adapt` daemon thereby tracks
// drift — new ECUs, firmware updates, seasonal bus load — without an
// operator in the loop, and the serving layer checkpoints what was
// learned as a version-2 snapshot so a restart does not forget it.
//
// # What counts as clean
//
// A closed window trains the adapter only when the bit-entropy detector
// raised no alert on it, the gateway dropped no frame while it was open
// (a window the filter touched is already suspect — and learning from
// it would let the adapter's own rate limits bias the next generation
// of budgets), and it carries at least Core.MinFrames frames (sparser
// windows are too noisy to score, so they are too noisy to learn from).
// Everything else is counted (Status's alerted/polluted/sparse) and
// discarded.
//
// # Determinism
//
// Both hook methods run on the engine lane's goroutine at
// stream-determined positions, and every decision — which windows are
// clean, when the promotion cadence fires, what the promoted budgets
// and template contain — is a pure function of the record stream and
// the configuration. An adapted engine run is therefore bit-identical
// to a sequential classify→observe→adapt loop that swaps the same
// models at the same window boundaries (TestEngineAdaptMatchesSequential,
// under -race). Pause, Resume, Force and Rebase are admin-surface mutations:
// they are goroutine-safe, but their timing relative to the stream is
// the caller's (nondeterministic) business.
package adapt

import (
	"fmt"
	"math"
	"time"

	"sync"

	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/engine"
	"canids/internal/entropy"
	"canids/internal/gateway"
	"canids/internal/model"
	"canids/internal/trace"
)

// Defaults for the zero-valued Config knobs.
const (
	// DefaultRing is the clean-window ring capacity budgets are learned
	// over.
	DefaultRing = 32
	// DefaultMinWindows is how many clean windows the ring must hold
	// before the first promotion.
	DefaultMinWindows = 8
	// DefaultEvery is the promotion cadence in clean windows.
	DefaultEvery = 8
	// DefaultRateSlack is the budget slack multiplier when neither the
	// configuration nor the snapshot supplies one.
	DefaultRateSlack = 2.0
	// DefaultTemplateEWMA is the per-clean-window smoothing factor λ for
	// the template means (mean ← (1−λ)·mean + λ·window).
	DefaultTemplateEWMA = 0.1
)

// Config parameterizes an Adapter.
type Config struct {
	// Base is the immutable model being served when adaptation starts
	// (internal/model): the EWMA refresh starts from its template means,
	// drift is measured against them, promotion deltas are counted
	// against its budgets, and every promotion is derived from it — same
	// core config, pool and policies, same epoch (learning refines a
	// generation, it does not mint one). Required.
	Base *model.Model
	// LearnBudgets enables budget promotions. Requires the base model to
	// carry a gateway policy whose rate window equals the detection
	// window: clean windows are detection windows, and a per-window peak
	// only transfers to the gateway's rate horizon when the horizons
	// match.
	LearnBudgets bool
	// RateSlack multiplies the learned per-window peaks, exactly like
	// gateway.Config.RateSlack. Zero falls back to the base model's
	// persisted gateway slack, then DefaultRateSlack.
	RateSlack float64
	// FreezeTemplate pins the template: promotions carry the current
	// template unchanged (budget-only adaptation).
	FreezeTemplate bool
	// TemplateEWMA is the smoothing factor λ applied per clean window to
	// the template's per-bit means (thresholds — the trained min/max
	// spread — never change). Zero means DefaultTemplateEWMA; ignored
	// with FreezeTemplate.
	TemplateEWMA float64
	// Ring is the clean-window ring capacity. Zero means DefaultRing.
	Ring int
	// MinWindows is the ring fill required before the first promotion.
	// Zero means DefaultMinWindows.
	MinWindows int
	// Every is the promotion cadence in clean windows. Zero means
	// DefaultEvery.
	Every int
	// OnPromote, when set, is called synchronously from the engine's
	// lane goroutine after each promotion — the serving layer's
	// checkpoint trigger. It must return quickly and must not call back
	// into the engine.
	OnPromote func(Promotion)
}

// Promotion describes one model promotion.
type Promotion struct {
	// Boundary is the window start the promoted model applies from.
	Boundary time.Duration
	// Windows is how many ring windows the promotion learned from.
	Windows int
	// Drift is the largest per-bit |Δmean entropy| versus the template
	// this promotion replaced.
	Drift float64
	// BudgetChanges is how many identifiers' budgets changed (including
	// identifiers appearing or disappearing).
	BudgetChanges int
}

// Status is a snapshot of the adapter's counters, served by
// /admin/adapt and the /stats adaptation section.
type Status struct {
	// Windows is the number of closed detection windows observed.
	Windows uint64 `json:"windows"`
	// Clean is the subset that trained the adapter.
	Clean uint64 `json:"clean"`
	// Alerted, Polluted and Sparse are the excluded windows: the
	// detector alerted, the gateway dropped frames, or too few frames.
	Alerted  uint64 `json:"alerted"`
	Polluted uint64 `json:"polluted"`
	Sparse   uint64 `json:"sparse"`
	// RingFill is how many clean windows the learning ring holds.
	RingFill int `json:"ring_fill"`
	// CleanSince is the clean windows accumulated since the last
	// promotion (the cadence counter).
	CleanSince int `json:"clean_since_promotion"`
	// Promotions is the number of model promotions so far.
	Promotions uint64 `json:"promotions"`
	// LastBoundary is the window boundary the last promotion applied
	// from.
	LastBoundary time.Duration `json:"last_boundary"`
	// Drift is the largest per-bit |Δmean entropy| of the promoted
	// template versus the originally served one.
	Drift float64 `json:"drift"`
	// BudgetIDs is the size of the currently promoted budget table.
	BudgetIDs int `json:"budget_ids"`
	// Paused and ForcePending mirror the admin controls.
	Paused       bool `json:"paused"`
	ForcePending bool `json:"force_pending"`
	// Every and MinWindows are the live promotion knobs (Configure can
	// change them per bus at runtime).
	Every      int `json:"every"`
	MinWindows int `json:"min_windows"`
	// Epoch is the base model generation promotions derive from.
	Epoch uint64 `json:"epoch"`
}

// Adapter accumulates clean-window statistics and proposes model
// promotions. It implements engine.AdaptHook. The hook methods are
// driven by the engine lane's goroutine; the admin surface (Pause,
// Resume, Force, Rebase, Status, Model) may be called concurrently from
// anywhere.
type Adapter struct {
	cfg  Config
	core core.Config

	mu sync.Mutex
	// Current-window accumulation.
	counter *entropy.BitCounter
	counts  map[can.ID]int
	frames  int
	// Scratch measurement vectors, reused per clean window.
	scratchH, scratchP []float64
	// Ring of recent clean windows' identifier counts.
	ring     []map[can.ID]int
	ringNext int
	ringFill int
	// EWMA state, seeded from the initial template's means.
	ewmaH, ewmaP []float64
	// cur is the currently promoted model (initially the base);
	// promotions derive from it, keeping its epoch. tmpl and budgets
	// mirror its adapted pieces for delta counting.
	cur     *model.Model
	tmpl    core.Template
	budgets map[can.ID]int
	// origMeanH anchors cumulative drift reporting.
	origMeanH []float64

	windows, clean, alerted, polluted, sparse, promotions uint64

	cleanSince   int
	lastBoundary time.Duration
	drift        float64
	paused       bool
	force        bool
}

var _ engine.AdaptHook = (*Adapter)(nil)

// New creates an adapter. The configuration is validated up front so a
// running engine can never receive an invalid promotion.
func New(cfg Config) (*Adapter, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("adapt: a base model is required")
	}
	coreCfg := cfg.Base.Core()
	if cfg.LearnBudgets {
		gp := cfg.Base.Gateway()
		if gp == nil {
			return nil, fmt.Errorf("adapt: budget learning needs a base model carrying gateway policy")
		}
		if gp.RateWindow() != coreCfg.Window {
			return nil, fmt.Errorf("adapt: budget learning needs the gateway rate window (%v) to equal the detection window (%v); clean windows are detection windows",
				gp.RateWindow(), coreCfg.Window)
		}
		if cfg.RateSlack == 0 && gp.RateSlack() > 0 {
			cfg.RateSlack = gp.RateSlack()
		}
	}
	if cfg.RateSlack == 0 {
		cfg.RateSlack = DefaultRateSlack
	}
	// The explicit NaN checks matter: NaN slips past every ordered
	// comparison, and the package's whole promise is that a validated
	// adapter can never hand the engine an invalid promotion.
	if math.IsNaN(cfg.RateSlack) || cfg.RateSlack <= 0 {
		return nil, fmt.Errorf("adapt: rate slack must be > 0, got %v", cfg.RateSlack)
	}
	if cfg.TemplateEWMA == 0 {
		cfg.TemplateEWMA = DefaultTemplateEWMA
	}
	if math.IsNaN(cfg.TemplateEWMA) || cfg.TemplateEWMA < 0 || cfg.TemplateEWMA > 1 {
		return nil, fmt.Errorf("adapt: template EWMA factor must be in (0, 1], got %v", cfg.TemplateEWMA)
	}
	if !cfg.LearnBudgets && cfg.FreezeTemplate {
		return nil, fmt.Errorf("adapt: nothing to adapt: budgets off and template frozen")
	}
	if cfg.MinWindows == 0 {
		cfg.MinWindows = DefaultMinWindows
	}
	if cfg.Ring == 0 {
		// A defaulted ring grows to fit the warm-up, so a caller that
		// only raises MinWindows (the CLI's -adapt-every does) is not
		// rejected against a ceiling it never chose. An explicit
		// Ring < MinWindows still errors below.
		cfg.Ring = DefaultRing
		if cfg.MinWindows > cfg.Ring {
			cfg.Ring = cfg.MinWindows
		}
	}
	if cfg.Every == 0 {
		cfg.Every = DefaultEvery
	}
	if cfg.Ring < 1 || cfg.MinWindows < 1 || cfg.Every < 1 {
		return nil, fmt.Errorf("adapt: ring/min-windows/every must be >= 1, got %d/%d/%d", cfg.Ring, cfg.MinWindows, cfg.Every)
	}
	if cfg.MinWindows > cfg.Ring {
		return nil, fmt.Errorf("adapt: MinWindows %d exceeds ring capacity %d", cfg.MinWindows, cfg.Ring)
	}
	a := &Adapter{
		cfg:      cfg,
		core:     coreCfg,
		counter:  entropy.MustBitCounter(coreCfg.Width),
		counts:   make(map[can.ID]int),
		scratchH: make([]float64, coreCfg.Width),
		scratchP: make([]float64, coreCfg.Width),
		ring:     make([]map[can.ID]int, cfg.Ring),
	}
	a.seedModel(cfg.Base)
	return a, nil
}

// seedModel installs m as the adapter's current model and re-anchors
// the EWMA and drift state on it. Caller holds mu (or is the
// constructor).
func (a *Adapter) seedModel(m *model.Model) {
	a.cur = m
	a.tmpl = m.Template()
	a.budgets = nil
	if gp := m.Gateway(); gp != nil {
		a.budgets = gp.Budgets()
	}
	a.ewmaH = append([]float64(nil), a.tmpl.MeanH...)
	a.ewmaP = append([]float64(nil), a.tmpl.MeanP...)
	a.origMeanH = append([]float64(nil), a.tmpl.MeanH...)
	a.drift = 0
}

// Observe implements engine.AdaptHook: fold one forwarded record into
// the currently open window.
func (a *Adapter) Observe(rec trace.Record) {
	a.mu.Lock()
	a.counter.Add(rec.Frame.ID)
	a.counts[rec.Frame.ID]++
	a.frames++
	a.mu.Unlock()
}

// WindowClosed implements engine.AdaptHook: classify the closed window,
// learn from it when clean, and return a promoted model when the
// cadence (or a forced promotion) fires.
func (a *Adapter) WindowClosed(info engine.WindowInfo) *model.Model {
	a.mu.Lock()
	a.windows++
	minFrames := a.core.MinFrames
	if minFrames < 1 {
		minFrames = 1
	}
	switch {
	case info.Alerted:
		a.alerted++
	case info.Dropped > 0:
		a.polluted++
	case a.frames < minFrames:
		a.sparse++
	default:
		a.clean++
		a.cleanSince++
		a.ring[a.ringNext] = a.counts
		a.ringNext = (a.ringNext + 1) % len(a.ring)
		if a.ringFill < len(a.ring) {
			a.ringFill++
		}
		a.counts = make(map[can.ID]int)
		if !a.cfg.FreezeTemplate {
			a.counter.MeasureInto(a.scratchH, a.scratchP)
			λ := a.cfg.TemplateEWMA
			for i := range a.ewmaH {
				a.ewmaH[i] = (1-λ)*a.ewmaH[i] + λ*a.scratchH[i]
				a.ewmaP[i] = (1-λ)*a.ewmaP[i] + λ*a.scratchP[i]
			}
		}
	}
	clear(a.counts)
	a.counter.Reset()
	a.frames = 0

	due := false
	if !a.paused && a.ringFill > 0 {
		due = a.force || (a.ringFill >= a.cfg.MinWindows && a.cleanSince >= a.cfg.Every)
	}
	if !due {
		a.mu.Unlock()
		return nil
	}
	m, prom := a.promote(info.NextStart)
	onPromote := a.cfg.OnPromote
	a.mu.Unlock()
	if onPromote != nil {
		onPromote(prom)
	}
	return m
}

// promote derives the promoted model from the current one — same core
// config, pool, policies and epoch; refreshed template and/or budgets —
// and records it as current. Caller holds mu.
func (a *Adapter) promote(boundary time.Duration) (*model.Model, Promotion) {
	newTmpl := a.tmpl
	if !a.cfg.FreezeTemplate {
		newTmpl.MeanH = append([]float64(nil), a.ewmaH...)
		newTmpl.MeanP = append([]float64(nil), a.ewmaP...)
	}
	prom := Promotion{Boundary: boundary, Windows: a.ringFill}
	for i := range newTmpl.MeanH {
		if d := math.Abs(newTmpl.MeanH[i] - a.tmpl.MeanH[i]); d > prom.Drift {
			prom.Drift = d
		}
	}
	// The With* derivations cannot fail: the template keeps the
	// validated width, and budget learning was validated against the
	// base model's gateway policy at New.
	m, err := a.cur.WithTemplate(newTmpl)
	if err != nil {
		panic(fmt.Sprintf("adapt: template rejected after validation: %v", err))
	}
	if a.cfg.LearnBudgets {
		// Budgets() cannot fail: the ring holds at least one non-empty
		// window (clean windows carry >= 1 frame), and the slack was
		// validated positive.
		learner, err := gateway.NewRateLearner(a.cfg.RateSlack)
		if err != nil {
			panic(fmt.Sprintf("adapt: slack rejected after validation: %v", err))
		}
		for i := 0; i < a.ringFill; i++ {
			learner.ObserveCounts(a.ring[i])
		}
		newBudgets, err := learner.Budgets()
		if err != nil {
			panic(fmt.Sprintf("adapt: budgets from a non-empty ring failed: %v", err))
		}
		for id, b := range newBudgets {
			if old, ok := a.budgets[id]; !ok || old != b {
				prom.BudgetChanges++
			}
		}
		for id := range a.budgets {
			if _, ok := newBudgets[id]; !ok {
				prom.BudgetChanges++
			}
		}
		a.budgets = newBudgets
		if m, err = m.WithGatewayBudgets(newBudgets); err != nil {
			panic(fmt.Sprintf("adapt: budgets rejected after validation: %v", err))
		}
	}
	a.cur = m
	a.tmpl = newTmpl
	for i := range newTmpl.MeanH {
		if d := math.Abs(newTmpl.MeanH[i] - a.origMeanH[i]); d > a.drift {
			a.drift = d
		}
	}
	a.promotions++
	a.lastBoundary = boundary
	a.cleanSince = 0
	a.force = false
	return m, prom
}

// Pause suspends promotions (windows keep being observed and learned
// from; nothing is promoted until Resume).
func (a *Adapter) Pause() {
	a.mu.Lock()
	a.paused = true
	a.mu.Unlock()
}

// Resume re-enables promotions.
func (a *Adapter) Resume() {
	a.mu.Lock()
	a.paused = false
	a.mu.Unlock()
}

// Force requests a promotion at the next window boundary regardless of
// the cadence, as soon as the ring holds at least one clean window and
// the adapter is not paused.
func (a *Adapter) Force() {
	a.mu.Lock()
	a.force = true
	a.mu.Unlock()
}

// Status returns a snapshot of the adapter's counters.
func (a *Adapter) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Status{
		Windows:      a.windows,
		Clean:        a.clean,
		Alerted:      a.alerted,
		Polluted:     a.polluted,
		Sparse:       a.sparse,
		RingFill:     a.ringFill,
		CleanSince:   a.cleanSince,
		Promotions:   a.promotions,
		LastBoundary: a.lastBoundary,
		Drift:        a.drift,
		BudgetIDs:    len(a.budgets),
		Paused:       a.paused,
		ForcePending: a.force,
		Every:        a.cfg.Every,
		MinWindows:   a.cfg.MinWindows,
		Epoch:        a.cur.Epoch(),
	}
}

// Configure adjusts the live promotion knobs: every is the cadence in
// clean windows, minWindows the ring fill required before the first
// promotion. A zero leaves the corresponding knob unchanged; the
// /admin/adapt HTTP surface drives this per bus. The change is applied
// atomically against the hook's own reads, so it takes effect at the
// next window boundary.
func (a *Adapter) Configure(every, minWindows int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if every < 0 || minWindows < 0 {
		return fmt.Errorf("adapt: every/min-windows must be >= 1, got %d/%d", every, minWindows)
	}
	if minWindows > len(a.ring) {
		return fmt.Errorf("adapt: MinWindows %d exceeds ring capacity %d", minWindows, len(a.ring))
	}
	if every > 0 {
		a.cfg.Every = every
	}
	if minWindows > 0 {
		a.cfg.MinWindows = minWindows
	}
	return nil
}

// Model returns the currently promoted model and the counters, for
// checkpointing. The model is "latest promoted": a checkpoint taken
// between a promotion and the engine installing it at the boundary
// persists the promotion, which is the conservative side (a restart
// serves at least what was learned).
func (a *Adapter) Model() (*model.Model, Status) {
	a.mu.Lock()
	m := a.cur
	a.mu.Unlock()
	return m, a.Status()
}

// Rebase re-anchors the adapter on a new model — the serving layer
// calls it when an operator hot-reloads a snapshot, so adaptation
// restarts from the reloaded model instead of promoting stale
// artifacts. The learning state (ring, EWMA, cadence) resets; the
// cumulative window counters and promotion count are kept.
func (a *Adapter) Rebase(m *model.Model) error {
	if m == nil {
		return fmt.Errorf("adapt: rebase needs a model")
	}
	if m.Core() != a.core {
		return fmt.Errorf("adapt: rebase model core config %+v does not match %+v", m.Core(), a.core)
	}
	if a.cfg.LearnBudgets {
		gp := m.Gateway()
		if gp == nil {
			return fmt.Errorf("adapt: rebase model carries no gateway policy but budget learning is on")
		}
		if gp.RateWindow() != a.core.Window {
			return fmt.Errorf("adapt: rebase gateway rate window %v does not equal the detection window %v",
				gp.RateWindow(), a.core.Window)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seedModel(m)
	for i := range a.ring {
		a.ring[i] = nil
	}
	a.ringNext, a.ringFill = 0, 0
	a.cleanSince = 0
	a.force = false
	clear(a.counts)
	a.counter.Reset()
	a.frames = 0
	return nil
}
