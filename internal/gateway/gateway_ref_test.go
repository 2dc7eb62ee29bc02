package gateway

import (
	"sort"
	"time"

	"canids/internal/can"
	"canids/internal/detect"
	"canids/internal/trace"
)

// refGateway is the original map-based gateway — legal set, budget
// table and rate-window counts keyed by identifier — kept as the
// reference that FuzzGatewayClassify holds Gateway to. It takes its
// tables straight from a Config, not from a Policy. Its locks and
// atomics are left out: it is driven from one goroutine.
type refGateway struct {
	legal      map[can.ID]bool
	budget     map[can.ID]int
	rateWindow time.Duration

	blocked map[can.ID]time.Duration

	windowStart time.Duration
	haveWindow  bool
	seen        map[can.ID]int

	stats Stats
}

func newRefGateway(cfg Config) *refGateway {
	g := &refGateway{blocked: make(map[can.ID]time.Duration), seen: make(map[can.ID]int)}
	g.setPolicy(cfg)
	return g
}

// setPolicy installs cfg's tables, as SetPolicy swapped the policy
// pointer.
func (g *refGateway) setPolicy(cfg Config) {
	g.legal, g.budget, g.rateWindow = nil, nil, cfg.RateWindow
	if len(cfg.Legal) > 0 {
		g.legal = make(map[can.ID]bool, len(cfg.Legal))
		for _, id := range cfg.Legal {
			g.legal[id] = true
		}
	}
	if len(cfg.Budgets) > 0 {
		g.budget = make(map[can.ID]int, len(cfg.Budgets))
		for id, b := range cfg.Budgets {
			g.budget[id] = b
		}
	}
}

func (g *refGateway) Block(id can.ID, until time.Duration) {
	if prev, ok := g.blocked[id]; ok {
		if prev == 0 || (until != 0 && until < prev) {
			return
		}
	}
	g.blocked[id] = until
}

func (g *refGateway) Unblock(id can.ID) { delete(g.blocked, id) }

func (g *refGateway) Blocked() []can.ID {
	ids := make([]can.ID, 0, len(g.blocked))
	for id := range g.blocked {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (g *refGateway) RestoreQuarantines(q map[can.ID]time.Duration) {
	for id, until := range q {
		g.Block(id, until)
	}
}

func (g *refGateway) SeedRateWindow(start time.Duration) {
	g.windowStart = start
	g.haveWindow = true
}

func (g *refGateway) Classify(rec trace.Record) Verdict {
	id := rec.Frame.ID
	if until, ok := g.blocked[id]; ok {
		if until == 0 || rec.Time < until {
			g.stats.DropBlocked++
			return DropBlocked
		}
		delete(g.blocked, id)
	}
	if g.legal != nil && !g.legal[id] {
		g.stats.DropUnknown++
		return DropUnknown
	}
	if g.budget != nil {
		if !g.haveWindow {
			g.haveWindow = true
			g.windowStart = rec.Time
		}
		if detect.WindowExpired(g.windowStart, rec.Time, g.rateWindow) {
			g.windowStart = detect.NextWindowStart(g.windowStart, rec.Time, g.rateWindow)
			clear(g.seen)
		}
		g.seen[id]++
		if budget, ok := g.budget[id]; ok && g.seen[id] > budget {
			g.stats.DropRate++
			return DropRate
		}
	}
	g.stats.Forwarded++
	return Forward
}

func (g *refGateway) Reset() {
	g.haveWindow = false
	g.windowStart = 0
	clear(g.seen)
	g.stats = Stats{}
}
