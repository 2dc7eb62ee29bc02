// Package gateway implements the CAN gateway filter the paper leans on
// throughout Sections III and V: a bus-level policy node that
//
//   - drops frames whose identifier is not in the vehicle's legal set
//     (the "network filters on the bus gateway" that stop naive
//     flooding);
//   - rate-limits each identifier against its learned nominal frequency,
//     flagging senders that exceed it ("with 4 and more injection IDs,
//     the compromised ECU would be easily figured out by the gateway
//     filter");
//   - enforces a dynamic blocklist, which is how the entropy IDS's
//     inference output turns into prevention ("the malicious messages
//     containing those IDs would be discarded or blocked").
//
// The gateway is a passive classifier over the observed record stream:
// it returns a verdict per frame which a bus bridge (or the evaluation
// harness) acts on. This matches real automotive gateways, which sit
// between bus segments and forward selectively.
//
// # Policy vs state
//
// A gateway splits into an immutable half and a mutable half. The
// immutable half is Policy — whitelist, rate budgets, rate horizon —
// built once and never mutated; swapping policy means installing a
// fresh Policy value behind an atomic pointer, so the classify hot
// path reads it without taking any lock and any number of gateways (a
// fleet of vehicle lanes) can share one Policy. The mutable half is
// per-gateway: the dynamic quarantine blocklist (written by the
// response stage, guarded by a small mutex that the hot path skips
// entirely while the blocklist is empty) and the rate-window counters
// (owned by the classify caller, like every detector's window state).
//
// A Gateway is safe for concurrent use: the streaming engine classifies
// records and blocks identifiers on its dispatch goroutine while callers
// may read quarantines and counters from others. Classify
// must still be called from one goroutine at a time in timestamp order
// for rate limiting to be meaningful.
package gateway

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"canids/internal/can"
	"canids/internal/detect"
	"canids/internal/trace"
)

// Verdict classifies one frame.
type Verdict int

const (
	// Forward lets the frame through.
	Forward Verdict = iota + 1
	// DropUnknown rejects a frame whose ID is not in the legal set.
	DropUnknown
	// DropRate rejects a frame exceeding its identifier's rate budget.
	DropRate
	// DropBlocked rejects a frame on the dynamic blocklist.
	DropBlocked
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Forward:
		return "forward"
	case DropUnknown:
		return "drop-unknown"
	case DropRate:
		return "drop-rate"
	case DropBlocked:
		return "drop-blocked"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Config parameterizes a Gateway.
type Config struct {
	// Legal is the set of identifiers allowed on the segment; empty
	// disables the whitelist check.
	Legal []can.ID
	// RateWindow is the horizon over which per-ID rates are enforced.
	RateWindow time.Duration
	// RateSlack multiplies each identifier's learned per-window budget;
	// e.g. 2.0 allows twice the nominal rate before dropping. Zero
	// disables rate limiting.
	RateSlack float64
	// Budgets is an injected per-identifier frame budget table — the
	// persisted alternative to LearnRates. Values are enforced as-is
	// (any slack was baked in when the table was learned), so a
	// snapshot restores rate limiting without clean traffic to relearn
	// from. Requires a positive RateWindow; every budget must be ≥ 1.
	Budgets map[can.ID]int
}

// DefaultConfig returns a permissive gateway: whitelist only.
func DefaultConfig(legal []can.ID) Config {
	return Config{Legal: legal, RateWindow: time.Second, RateSlack: 0}
}

// Stats aggregates gateway counters.
type Stats struct {
	Forwarded   int
	DropUnknown int
	DropRate    int
	DropBlocked int
}

// Dropped returns the total dropped frames.
func (s Stats) Dropped() int { return s.DropUnknown + s.DropRate + s.DropBlocked }

// Sub returns the counter-wise difference s − o: the verdicts recorded
// between two snapshots. The engine's live metrics diff successive
// snapshots with it to report per-interval rates.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Forwarded:   s.Forwarded - o.Forwarded,
		DropUnknown: s.DropUnknown - o.DropUnknown,
		DropRate:    s.DropRate - o.DropRate,
		DropBlocked: s.DropBlocked - o.DropBlocked,
	}
}

// Policy is the immutable half of a gateway: the whitelist, the
// per-identifier rate budgets and the rate horizon. A Policy is never
// mutated after construction — derive a changed one with WithBudgets
// or WithLegal and install it with Gateway.SetPolicy — so readers
// never need a lock and many gateways can share one value.
type Policy struct {
	legal      map[can.ID]bool
	budget     map[can.ID]int
	rateWindow time.Duration
	rateSlack  float64
}

// NewPolicy validates cfg and builds an immutable policy from it.
func NewPolicy(cfg Config) (*Policy, error) {
	if math.IsNaN(cfg.RateSlack) || cfg.RateSlack < 0 {
		return nil, fmt.Errorf("gateway: rate slack must be >= 0, got %v", cfg.RateSlack)
	}
	if (cfg.RateSlack > 0 || len(cfg.Budgets) > 0) && cfg.RateWindow <= 0 {
		return nil, fmt.Errorf("gateway: rate limiting needs a positive window, got %v", cfg.RateWindow)
	}
	p := &Policy{rateWindow: cfg.RateWindow, rateSlack: cfg.RateSlack}
	if len(cfg.Budgets) > 0 {
		budget, err := copyBudgets(cfg.Budgets)
		if err != nil {
			return nil, err
		}
		p.budget = budget
	}
	if len(cfg.Legal) > 0 {
		p.legal = make(map[can.ID]bool, len(cfg.Legal))
		for _, id := range cfg.Legal {
			p.legal[id] = true
		}
	}
	return p, nil
}

// WithBudgets derives a policy with the budget table replaced. An
// empty (or nil) table disables rate limiting. A non-empty table
// requires the policy's rate horizon to be positive, like
// Config.Budgets.
func (p *Policy) WithBudgets(budgets map[can.ID]int) (*Policy, error) {
	next := *p
	if len(budgets) == 0 {
		next.budget = nil
		return &next, nil
	}
	if p.rateWindow <= 0 {
		return nil, fmt.Errorf("gateway: rate limiting needs a positive window, got %v", p.rateWindow)
	}
	budget, err := copyBudgets(budgets)
	if err != nil {
		return nil, err
	}
	next.budget = budget
	return &next, nil
}

// WithLegal derives a policy with the whitelist replaced. An empty (or
// nil) set disables the whitelist check.
func (p *Policy) WithLegal(legal []can.ID) *Policy {
	next := *p
	next.legal = nil
	if len(legal) > 0 {
		next.legal = make(map[can.ID]bool, len(legal))
		for _, id := range legal {
			next.legal[id] = true
		}
	}
	return &next
}

// Legal returns the whitelisted identifiers, ascending, or nil when
// the whitelist is disabled.
func (p *Policy) Legal() []can.ID {
	if len(p.legal) == 0 {
		return nil
	}
	ids := make([]can.ID, 0, len(p.legal))
	for id := range p.legal {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Budgets returns a copy of the per-identifier budget table, or nil
// when rate limiting is off.
func (p *Policy) Budgets() map[can.ID]int {
	if p.budget == nil {
		return nil
	}
	out := make(map[can.ID]int, len(p.budget))
	for id, b := range p.budget {
		out[id] = b
	}
	return out
}

// RateWindow returns the rate-limit horizon.
func (p *Policy) RateWindow() time.Duration { return p.rateWindow }

// RateSlack returns the learning slack multiplier.
func (p *Policy) RateSlack() float64 { return p.rateSlack }

// Gateway is the policy engine. Create with New, optionally LearnRates
// from clean traffic, then classify frames in timestamp order with
// Classify.
type Gateway struct {
	// policy is the immutable policy snapshot; Classify loads it
	// lock-free, writers replace it wholesale under swapMu (which only
	// serializes writers against each other, never readers).
	policy atomic.Pointer[Policy]
	swapMu sync.Mutex

	// The quarantine blocklist is per-gateway mutable state written by
	// the response stage. nBlocked mirrors len(blocked) so the classify
	// hot path skips the mutex entirely while nothing is quarantined.
	quarMu   sync.Mutex
	blocked  map[can.ID]time.Duration
	nBlocked atomic.Int64

	// Rate-window counters, owned by the classify caller (Classify is
	// single-goroutine, like every detector's window walk).
	windowStart time.Duration
	haveWindow  bool
	seen        map[can.ID]int

	forwarded   atomic.Int64
	dropUnknown atomic.Int64
	dropRate    atomic.Int64
	dropBlocked atomic.Int64
}

// New creates a gateway.
func New(cfg Config) (*Gateway, error) {
	p, err := NewPolicy(cfg)
	if err != nil {
		return nil, err
	}
	return NewWithPolicy(p), nil
}

// NewWithPolicy creates a gateway sharing an existing immutable
// policy — the fleet path, where hundreds of vehicle lanes reference
// one Policy value instead of copying its tables.
func NewWithPolicy(p *Policy) *Gateway {
	g := &Gateway{
		blocked: make(map[can.ID]time.Duration),
		seen:    make(map[can.ID]int),
	}
	g.policy.Store(p)
	return g
}

// copyBudgets validates and copies an injected budget table.
func copyBudgets(budgets map[can.ID]int) (map[can.ID]int, error) {
	out := make(map[can.ID]int, len(budgets))
	for id, b := range budgets {
		if b < 1 {
			return nil, fmt.Errorf("gateway: budget for %v must be >= 1, got %d", id, b)
		}
		out[id] = b
	}
	return out, nil
}

// RateLearner derives per-identifier frame budgets from clean traffic
// one window at a time — the incremental form of the batch LearnRates
// math, for callers (the online-adaptation subsystem) that see windows
// as they close rather than as a slice up front. Feeding the same
// windows produces the same budgets as LearnRates, in any order
// (TestRateLearnerMatchesBatch pins it). A RateLearner is not safe for
// concurrent use.
type RateLearner struct {
	slack   float64
	peak    map[can.ID]int
	windows int
}

// NewRateLearner creates a learner with the given slack multiplier
// (the same role as Config.RateSlack; must be positive).
func NewRateLearner(slack float64) (*RateLearner, error) {
	// NaN slips past ordered comparisons and would yield a degenerate
	// all-ones budget table; reject it explicitly.
	if math.IsNaN(slack) || slack <= 0 {
		return nil, fmt.Errorf("gateway: rate slack must be > 0, got %v", slack)
	}
	return &RateLearner{slack: slack, peak: make(map[can.ID]int)}, nil
}

// ObserveWindow folds one clean window of records into the learner.
// Empty windows are ignored, like LearnRates.
func (l *RateLearner) ObserveWindow(w trace.Trace) {
	if len(w) == 0 {
		return
	}
	l.ObserveCounts(w.IDCounts())
}

// ObserveCounts folds one clean window's per-identifier frame counts
// into the learner — for callers that already count identifiers as the
// window accumulates. Empty counts are ignored.
func (l *RateLearner) ObserveCounts(counts map[can.ID]int) {
	if len(counts) == 0 {
		return
	}
	l.windows++
	for id, n := range counts {
		if n > l.peak[id] {
			l.peak[id] = n
		}
	}
}

// Windows returns how many non-empty windows were observed.
func (l *RateLearner) Windows() int { return l.windows }

// Budgets returns the learned per-identifier budget table:
// ceil(max observed per window × slack), floored at 1 — exactly the
// LearnRates math. It errors when no usable window was observed.
func (l *RateLearner) Budgets() (map[can.ID]int, error) {
	if l.windows == 0 {
		return nil, fmt.Errorf("gateway: no usable training windows")
	}
	budget := make(map[can.ID]int, len(l.peak))
	for id, n := range l.peak {
		b := int(float64(n)*l.slack + 0.999)
		if b < 1 {
			b = 1
		}
		budget[id] = b
	}
	return budget, nil
}

// LearnRates derives each identifier's per-window frame budget from
// clean traffic windows: budget = ceil(max observed per window) ×
// RateSlack. Must be called before Classify when RateSlack > 0.
func (g *Gateway) LearnRates(windows []trace.Trace) error {
	if g.RateSlack() <= 0 {
		return fmt.Errorf("gateway: rate limiting disabled (slack %v)", g.RateSlack())
	}
	l, err := NewRateLearner(g.RateSlack())
	if err != nil {
		return err
	}
	for _, w := range windows {
		l.ObserveWindow(w)
	}
	budget, err := l.Budgets()
	if err != nil {
		return err
	}
	return g.SetBudgets(budget)
}

// Policy returns the active immutable policy snapshot.
func (g *Gateway) Policy() *Policy { return g.policy.Load() }

// SetPolicy installs a policy snapshot wholesale — the single swap
// path hot reload, adaptation and fleet model swaps all funnel
// through. A nil policy is rejected.
func (g *Gateway) SetPolicy(p *Policy) error {
	if p == nil {
		return fmt.Errorf("gateway: nil policy")
	}
	g.swapMu.Lock()
	g.policy.Store(p)
	g.swapMu.Unlock()
	return nil
}

// Budgets returns a copy of the active per-identifier frame budget
// table (learned or injected), or nil when rate limiting is off — the
// export half of persisting gateway policy in a model snapshot.
func (g *Gateway) Budgets() map[can.ID]int {
	return g.policy.Load().Budgets()
}

// SetBudgets replaces the per-identifier frame budget table, e.g. with
// one restored from a snapshot at a hot-reload boundary. An empty (or
// nil) table disables rate limiting. Requires a positive RateWindow,
// like Config.Budgets.
func (g *Gateway) SetBudgets(budgets map[can.ID]int) error {
	g.swapMu.Lock()
	defer g.swapMu.Unlock()
	next, err := g.policy.Load().WithBudgets(budgets)
	if err != nil {
		return err
	}
	g.policy.Store(next)
	return nil
}

// SetLegal replaces the whitelist. An empty (or nil) set disables the
// whitelist check, matching New.
func (g *Gateway) SetLegal(legal []can.ID) {
	g.swapMu.Lock()
	g.policy.Store(g.policy.Load().WithLegal(legal))
	g.swapMu.Unlock()
}

// Legal returns the whitelisted identifiers, ascending, or nil when the
// whitelist is disabled.
func (g *Gateway) Legal() []can.ID { return g.policy.Load().Legal() }

// RateWindow returns the configured rate-limit horizon.
func (g *Gateway) RateWindow() time.Duration { return g.policy.Load().rateWindow }

// RateSlack returns the configured learning slack multiplier.
func (g *Gateway) RateSlack() float64 { return g.policy.Load().rateSlack }

// Block adds an identifier to the blocklist until the given time
// (zero = forever). The entropy IDS's inference feeds this. A block
// never shortens an existing quarantine: when the identifier is already
// blocked, the later deadline wins, and a forever block (until zero)
// stays forever.
func (g *Gateway) Block(id can.ID, until time.Duration) {
	g.quarMu.Lock()
	defer g.quarMu.Unlock()
	if prev, ok := g.blocked[id]; ok {
		if prev == 0 || (until != 0 && until < prev) {
			return
		}
		g.blocked[id] = until
		return
	}
	g.blocked[id] = until
	g.nBlocked.Add(1)
}

// Unblock removes an identifier from the blocklist.
func (g *Gateway) Unblock(id can.ID) {
	g.quarMu.Lock()
	if _, ok := g.blocked[id]; ok {
		delete(g.blocked, id)
		g.nBlocked.Add(-1)
	}
	g.quarMu.Unlock()
}

// Blocked returns the blocklisted identifiers, ascending. Expiry is
// processed lazily by Classify, so an identifier whose deadline lapsed
// without another frame arriving is still listed; use Quarantines to
// filter by deadline.
func (g *Gateway) Blocked() []can.ID {
	g.quarMu.Lock()
	ids := make([]can.ID, 0, len(g.blocked))
	for id := range g.blocked {
		ids = append(ids, id)
	}
	g.quarMu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Quarantines returns a copy of the blocklist with each identifier's
// deadline (zero = forever), including lazily-expired entries (see
// Blocked).
func (g *Gateway) Quarantines() map[can.ID]time.Duration {
	g.quarMu.Lock()
	defer g.quarMu.Unlock()
	out := make(map[can.ID]time.Duration, len(g.blocked))
	for id, until := range g.blocked {
		out[id] = until
	}
	return out
}

// RestoreQuarantines seeds the blocklist from a saved copy — the fleet
// path re-arming a vehicle lane that was torn down idle. Existing
// entries keep the later deadline, like Block.
func (g *Gateway) RestoreQuarantines(q map[can.ID]time.Duration) {
	for id, until := range q {
		g.Block(id, until)
	}
}

// RateWindowStart returns the open rate window's origin, and whether a
// window is open at all — the phase half of a torn-down fleet lane's
// residue (budget enforcement tumbles from the stream's first record,
// so a resumed lane must keep the same phase to drop the same frames).
func (g *Gateway) RateWindowStart() (time.Duration, bool) {
	return g.windowStart, g.haveWindow
}

// SeedRateWindow restores the rate-window origin saved by
// RateWindowStart before the first record of a resumed stream is
// classified. The caller advances the origin over the silent gap with
// detect.NextWindowStart; the counters start empty, which is exactly
// the state an uninterrupted gateway reaches when the gap expired its
// window.
func (g *Gateway) SeedRateWindow(start time.Duration) {
	g.windowStart = start
	g.haveWindow = true
}

// Classify returns the verdict for one frame. Records must arrive in
// non-decreasing timestamp order for rate limiting to be meaningful.
// The policy read is lock-free; the quarantine mutex is touched only
// while the blocklist is non-empty.
func (g *Gateway) Classify(rec trace.Record) Verdict {
	p := g.policy.Load()
	id := rec.Frame.ID
	if g.nBlocked.Load() != 0 {
		g.quarMu.Lock()
		if until, ok := g.blocked[id]; ok {
			if until == 0 || rec.Time < until {
				g.quarMu.Unlock()
				g.dropBlocked.Add(1)
				return DropBlocked
			}
			delete(g.blocked, id)
			g.nBlocked.Add(-1)
		}
		g.quarMu.Unlock()
	}
	if p.legal != nil && !p.legal[id] {
		g.dropUnknown.Add(1)
		return DropUnknown
	}
	if p.budget != nil {
		if !g.haveWindow {
			g.haveWindow = true
			g.windowStart = rec.Time
		}
		// Same overflow-safe boundary walk as every detector (see
		// internal/detect): the arithmetic skip makes a huge timestamp
		// gap O(1) instead of one iteration per elapsed window, and the
		// expiry check cannot wrap at the top of the int64 range.
		if detect.WindowExpired(g.windowStart, rec.Time, p.rateWindow) {
			g.windowStart = detect.NextWindowStart(g.windowStart, rec.Time, p.rateWindow)
			clear(g.seen)
		}
		g.seen[id]++
		if budget, ok := p.budget[id]; ok && g.seen[id] > budget {
			g.dropRate.Add(1)
			return DropRate
		}
	}
	g.forwarded.Add(1)
	return Forward
}

// Filter classifies a whole trace and returns the forwarded records plus
// the per-verdict counts of this call alone (the delta over the
// gateway's cumulative Stats).
func (g *Gateway) Filter(tr trace.Trace) (trace.Trace, Stats) {
	before := g.Stats()
	var out trace.Trace
	for _, r := range tr {
		if g.Classify(r) == Forward {
			out = append(out, r)
		}
	}
	return out, g.Stats().Sub(before)
}

// Stats returns a copy of the cumulative counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Forwarded:   int(g.forwarded.Load()),
		DropUnknown: int(g.dropUnknown.Load()),
		DropRate:    int(g.dropRate.Load()),
		DropBlocked: int(g.dropBlocked.Load()),
	}
}

// Reset clears streaming state (not the learned budgets or blocklist).
func (g *Gateway) Reset() {
	g.haveWindow = false
	g.windowStart = 0
	clear(g.seen)
	g.forwarded.Store(0)
	g.dropUnknown.Store(0)
	g.dropRate.Store(0)
	g.dropBlocked.Store(0)
}
