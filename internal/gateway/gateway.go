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
// fresh Policy value, and any number of gateways (a fleet of vehicle
// lanes) can share one Policy. Identifiers up to 0x7FF — every
// standard one — are looked up in dense tables indexed by identifier
// rather than in maps. The mutable half is per-gateway: the dynamic
// quarantine blocklist, the rate-window counters and the verdict
// counts.
//
// A Gateway is not safe for concurrent use. It belongs to the
// goroutine that classifies: the one running the engine lane, which
// also runs the responder that blocks identifiers and installs models
// at window boundaries — Run's caller, or in a fleet the lane's host. Read Quarantines, Blocked and Stats on that goroutine, or after
// it has stopped (the CLI's -watch report reads them after the run).
// Classify must be called in timestamp order for rate limiting to be
// meaningful.
package gateway

import (
	"fmt"
	"math"
	"sort"
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
// or WithLegal and install it with Gateway.SetPolicy — so many
// gateways can share one value.
//
// Identifiers up to 0x7FF (standard ones, and extended ones of the
// same values, which share their key) live in dense tables: slot maps
// each to 1 + its index in ids and budget, or to 0 when it is neither
// legal nor budgeted. Legal identifiers take the first nLegal slots.
// A gateway counts frames per slot. Wider identifiers keep maps.
type Policy struct {
	slot       *[can.MaxStandardID + 1]uint16
	ids        []can.ID
	budget     []int // per slot; 0 when the identifier has no budget
	nLegal     int
	wideLegal  map[can.ID]bool
	wideBudget map[can.ID]int
	whitelist  bool // the legal set is non-empty
	limited    bool // the budget table is non-empty
	rateWindow time.Duration
	rateSlack  float64
}

// noSlots is the slot table of a policy with no 11-bit identifiers.
var noSlots [can.MaxStandardID + 1]uint16

// NewPolicy validates cfg and builds an immutable policy from it.
func NewPolicy(cfg Config) (*Policy, error) {
	if math.IsNaN(cfg.RateSlack) || cfg.RateSlack < 0 {
		return nil, fmt.Errorf("gateway: rate slack must be >= 0, got %v", cfg.RateSlack)
	}
	if (cfg.RateSlack > 0 || len(cfg.Budgets) > 0) && cfg.RateWindow <= 0 {
		return nil, fmt.Errorf("gateway: rate limiting needs a positive window, got %v", cfg.RateWindow)
	}
	if err := checkBudgets(cfg.Budgets); err != nil {
		return nil, err
	}
	p := &Policy{rateWindow: cfg.RateWindow, rateSlack: cfg.RateSlack}
	p.build(cfg.Legal, cfg.Budgets)
	return p, nil
}

// build fills p's tables from a legal set and a validated budget
// table; either may be empty.
func (p *Policy) build(legal []can.ID, budgets map[can.ID]int) {
	p.slot, p.ids, p.nLegal, p.wideLegal = &noSlots, nil, 0, nil
	p.whitelist = len(legal) > 0
	if len(legal)+len(budgets) > 0 {
		slot := new([can.MaxStandardID + 1]uint16)
		ids := make([]can.ID, 0, len(legal)+len(budgets))
		for _, id := range legal {
			if id > can.MaxStandardID {
				if p.wideLegal == nil {
					p.wideLegal = make(map[can.ID]bool)
				}
				p.wideLegal[id] = true
			} else if slot[id] == 0 {
				ids = append(ids, id)
				slot[id] = uint16(len(ids))
			}
		}
		p.nLegal = len(ids)
		for id := range budgets {
			if id <= can.MaxStandardID && slot[id] == 0 {
				ids = append(ids, id)
				slot[id] = uint16(len(ids))
			}
		}
		p.slot, p.ids = slot, ids
	}
	p.setBudgets(budgets)
}

// setBudgets fills p's budget tables from a validated budget table
// whose 11-bit identifiers all have slots.
func (p *Policy) setBudgets(budgets map[can.ID]int) {
	p.budget, p.wideBudget, p.limited = nil, nil, len(budgets) > 0
	if !p.limited {
		return
	}
	p.budget = make([]int, len(p.ids))
	for id, b := range budgets {
		if id > can.MaxStandardID {
			if p.wideBudget == nil {
				p.wideBudget = make(map[can.ID]int)
			}
			p.wideBudget[id] = b
		} else {
			p.budget[p.slot[id]-1] = b
		}
	}
}

// slotOf returns id's slot, or 0 when it has none.
func (p *Policy) slotOf(id can.ID) uint16 {
	if id > can.MaxStandardID {
		return 0
	}
	return p.slot[id]
}

// WithBudgets derives a policy with the budget table replaced. An
// empty (or nil) table disables rate limiting. A non-empty table
// requires the policy's rate horizon to be positive, like
// Config.Budgets. When p already has a slot for every budgeted
// identifier — an adapted table over a whitelisted fleet always does —
// the new policy shares p's slot table, so a gateway swapping between
// them keeps its rate-window counts in place.
func (p *Policy) WithBudgets(budgets map[can.ID]int) (*Policy, error) {
	if len(budgets) > 0 && p.rateWindow <= 0 {
		return nil, fmt.Errorf("gateway: rate limiting needs a positive window, got %v", p.rateWindow)
	}
	if err := checkBudgets(budgets); err != nil {
		return nil, err
	}
	next := &Policy{rateWindow: p.rateWindow, rateSlack: p.rateSlack}
	for id := range budgets {
		if id <= can.MaxStandardID && p.slot[id] == 0 {
			next.build(p.legalIDs(), budgets)
			return next, nil
		}
	}
	next.slot, next.ids, next.nLegal, next.wideLegal, next.whitelist = p.slot, p.ids, p.nLegal, p.wideLegal, p.whitelist
	next.setBudgets(budgets)
	return next, nil
}

// WithLegal derives a policy with the whitelist replaced. An empty (or
// nil) set disables the whitelist check.
func (p *Policy) WithLegal(legal []can.ID) *Policy {
	next := &Policy{rateWindow: p.rateWindow, rateSlack: p.rateSlack}
	next.build(legal, p.Budgets())
	return next
}

// legalIDs returns the whitelisted identifiers in slot order.
func (p *Policy) legalIDs() []can.ID {
	ids := append([]can.ID(nil), p.ids[:p.nLegal]...)
	for id := range p.wideLegal {
		ids = append(ids, id)
	}
	return ids
}

// Legal returns the whitelisted identifiers, ascending, or nil when
// the whitelist is disabled.
func (p *Policy) Legal() []can.ID {
	if !p.whitelist {
		return nil
	}
	ids := p.legalIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Budgets returns a copy of the per-identifier budget table, or nil
// when rate limiting is off.
func (p *Policy) Budgets() map[can.ID]int {
	if !p.limited {
		return nil
	}
	out := make(map[can.ID]int, len(p.ids)+len(p.wideBudget))
	for s, b := range p.budget {
		if b != 0 {
			out[p.ids[s]] = b
		}
	}
	for id, b := range p.wideBudget {
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
	policy *Policy

	// The quarantine blocklist, written by the response stage.
	blocked map[can.ID]time.Duration

	// The open rate window: its origin, and the frames counted in it
	// per slot of the policy, plus per identifier for those without a
	// slot (wide ones, and unbudgeted ones when no whitelist drops
	// them first). Every counted identifier keeps its count across a
	// policy swap until the window expires.
	windowStart time.Duration
	haveWindow  bool
	counts      []uint32
	other       map[can.ID]uint32

	stats Stats
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
	g := &Gateway{policy: p}
	if p.limited {
		g.counts = make([]uint32, len(p.ids))
	}
	return g
}

// checkBudgets validates an injected budget table.
func checkBudgets(budgets map[can.ID]int) error {
	for id, b := range budgets {
		if b < 1 {
			return fmt.Errorf("gateway: budget for %v must be >= 1, got %d", id, b)
		}
	}
	return nil
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
func (g *Gateway) Policy() *Policy { return g.policy }

// SetPolicy installs a policy snapshot wholesale — the single swap
// path hot reload, adaptation and fleet model swaps all funnel
// through. A nil policy is rejected. The open rate window's counts
// carry over identifier by identifier.
func (g *Gateway) SetPolicy(p *Policy) error {
	if p == nil {
		return fmt.Errorf("gateway: nil policy")
	}
	old := g.policy
	g.policy = p
	if p.slot == old.slot && p.limited == old.limited {
		return nil // same slots: the counts stand
	}
	var counts []uint32
	if p.limited {
		counts = make([]uint32, len(p.ids))
	}
	for s, n := range g.counts {
		if n == 0 {
			continue
		}
		if to := p.slotOf(old.ids[s]); to != 0 && counts != nil {
			counts[to-1] = n
		} else {
			g.countOther(old.ids[s], n)
		}
	}
	if counts != nil {
		for id, n := range g.other {
			if to := p.slotOf(id); to != 0 {
				counts[to-1] += n
				delete(g.other, id)
			}
		}
	}
	g.counts = counts
	return nil
}

// Budgets returns a copy of the active per-identifier frame budget
// table (learned or injected), or nil when rate limiting is off — the
// export half of persisting gateway policy in a model snapshot.
func (g *Gateway) Budgets() map[can.ID]int {
	return g.policy.Budgets()
}

// SetBudgets replaces the per-identifier frame budget table, e.g. with
// one restored from a snapshot at a hot-reload boundary. An empty (or
// nil) table disables rate limiting. Requires a positive RateWindow,
// like Config.Budgets.
func (g *Gateway) SetBudgets(budgets map[can.ID]int) error {
	next, err := g.policy.WithBudgets(budgets)
	if err != nil {
		return err
	}
	return g.SetPolicy(next)
}

// SetLegal replaces the whitelist. An empty (or nil) set disables the
// whitelist check, matching New.
func (g *Gateway) SetLegal(legal []can.ID) {
	g.SetPolicy(g.policy.WithLegal(legal)) //nolint:errcheck // never nil
}

// Legal returns the whitelisted identifiers, ascending, or nil when the
// whitelist is disabled.
func (g *Gateway) Legal() []can.ID { return g.policy.Legal() }

// RateWindow returns the configured rate-limit horizon.
func (g *Gateway) RateWindow() time.Duration { return g.policy.rateWindow }

// RateSlack returns the configured learning slack multiplier.
func (g *Gateway) RateSlack() float64 { return g.policy.rateSlack }

// Block adds an identifier to the blocklist until the given time
// (zero = forever). The entropy IDS's inference feeds this. A block
// never shortens an existing quarantine: when the identifier is already
// blocked, the later deadline wins, and a forever block (until zero)
// stays forever.
func (g *Gateway) Block(id can.ID, until time.Duration) {
	if prev, ok := g.blocked[id]; ok && (prev == 0 || (until != 0 && until < prev)) {
		return
	}
	if g.blocked == nil {
		g.blocked = make(map[can.ID]time.Duration)
	}
	g.blocked[id] = until
}

// Unblock removes an identifier from the blocklist.
func (g *Gateway) Unblock(id can.ID) { delete(g.blocked, id) }

// Blocked returns the blocklisted identifiers, ascending. Expiry is
// processed lazily by Classify, so an identifier whose deadline lapsed
// without another frame arriving is still listed; use Quarantines to
// filter by deadline.
func (g *Gateway) Blocked() []can.ID {
	ids := make([]can.ID, 0, len(g.blocked))
	for id := range g.blocked {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Quarantines returns a copy of the blocklist with each identifier's
// deadline (zero = forever), including lazily-expired entries (see
// Blocked).
func (g *Gateway) Quarantines() map[can.ID]time.Duration {
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
// An 11-bit identifier costs two table reads and a count, and a map
// lookup while the blocklist is non-empty.
func (g *Gateway) Classify(rec trace.Record) Verdict {
	id := rec.Frame.ID
	if len(g.blocked) != 0 {
		if until, ok := g.blocked[id]; ok {
			if until == 0 || rec.Time < until {
				g.stats.DropBlocked++
				return DropBlocked
			}
			delete(g.blocked, id)
		}
	}
	p := g.policy
	if p.whitelist || p.limited {
		s := p.slotOf(id)
		if p.whitelist && !p.legal(id, s) {
			g.stats.DropUnknown++
			return DropUnknown
		}
		if p.limited && g.overBudget(p, id, s, rec.Time) {
			g.stats.DropRate++
			return DropRate
		}
	}
	g.stats.Forwarded++
	return Forward
}

// legal reports whether id, whose slot is s, is whitelisted.
func (p *Policy) legal(id can.ID, s uint16) bool {
	if id > can.MaxStandardID {
		return p.wideLegal[id]
	}
	return s != 0 && int(s) <= p.nLegal
}

// overBudget counts one frame of id, whose slot is s, in the rate
// window holding t, and reports whether the count exceeds id's budget.
func (g *Gateway) overBudget(p *Policy, id can.ID, s uint16, t time.Duration) bool {
	if !g.haveWindow {
		g.haveWindow = true
		g.windowStart = t
	}
	// Same overflow-safe boundary walk as every detector (see
	// internal/detect): the arithmetic skip makes a huge timestamp gap
	// O(1) instead of one iteration per elapsed window, and the expiry
	// check cannot wrap at the top of the int64 range.
	if detect.WindowExpired(g.windowStart, t, p.rateWindow) {
		g.windowStart = detect.NextWindowStart(g.windowStart, t, p.rateWindow)
		clear(g.counts)
		clear(g.other)
	}
	if s != 0 {
		g.counts[s-1]++
		b := p.budget[s-1]
		return b != 0 && int(g.counts[s-1]) > b
	}
	n := g.countOther(id, 1)
	b, ok := p.wideBudget[id]
	return ok && int(n) > b
}

// countOther adds n frames to the count of an identifier without a
// slot and returns its new count.
func (g *Gateway) countOther(id can.ID, n uint32) uint32 {
	if g.other == nil {
		g.other = make(map[can.ID]uint32)
	}
	g.other[id] += n
	return g.other[id]
}

// Filter classifies a whole trace and returns the forwarded records plus
// the per-verdict counts of this call alone (the delta over the
// gateway's cumulative Stats).
func (g *Gateway) Filter(tr trace.Trace) (trace.Trace, Stats) {
	before := g.stats
	var out trace.Trace
	for _, r := range tr {
		if g.Classify(r) == Forward {
			out = append(out, r)
		}
	}
	return out, g.stats.Sub(before)
}

// Stats returns a copy of the cumulative counters.
func (g *Gateway) Stats() Stats { return g.stats }

// Reset clears streaming state (not the learned budgets or blocklist).
func (g *Gateway) Reset() {
	g.haveWindow = false
	g.windowStart = 0
	clear(g.counts)
	clear(g.other)
	g.stats = Stats{}
}
