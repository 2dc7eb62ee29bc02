package gateway

import (
	"maps"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"canids/internal/can"
	"canids/internal/trace"
)

// fuzzIDs is the identifier universe of FuzzGatewayClassify: 11-bit
// values at both ends of the dense table, and wide ones kept in maps.
var fuzzIDs = []can.ID{0x000, 0x001, 0x0B5, 0x100, 0x101, 0x7FF, 0x800, 0x1ABCDE, 0x1FFFFFFF}

// fuzzGaps are the time steps between classified records, up to gaps
// that skip billions of rate windows.
var fuzzGaps = []time.Duration{0, time.Microsecond, 500 * time.Microsecond, 3 * time.Millisecond, time.Second, 1 << 40, 1 << 62}

// program reads a fuzz input byte by byte, yielding zeros once spent.
type program []byte

func (p *program) next() byte {
	if len(*p) == 0 {
		return 0
	}
	b := (*p)[0]
	*p = (*p)[1:]
	return b
}

func (p *program) id() can.ID { return fuzzIDs[int(p.next())%len(fuzzIDs)] }

// ids picks a subset of fuzzIDs.
func (p *program) ids() []can.ID {
	mask := uint16(p.next()) | uint16(p.next())<<8
	var out []can.ID
	for i, id := range fuzzIDs {
		if mask&(1<<i) != 0 {
			out = append(out, id)
		}
	}
	return out
}

// budgets picks a budget table, empty or not.
func (p *program) budgets() map[can.ID]int {
	ids := p.ids()
	if len(ids) == 0 {
		return nil
	}
	out := make(map[can.ID]int, len(ids))
	for _, id := range ids {
		out[id] = 1 + int(p.next()%4)
	}
	return out
}

// config picks a policy: whitelist and budgets each on or off, over
// one of three rate windows.
func (p *program) config() Config {
	flags := p.next()
	cfg := Config{RateWindow: []time.Duration{time.Millisecond, 10 * time.Millisecond, time.Second}[int(flags>>2)%3]}
	if flags&1 != 0 {
		cfg.Legal = p.ids()
	}
	if flags&2 != 0 {
		cfg.Budgets = p.budgets()
	}
	return cfg
}

// FuzzGatewayClassify holds Gateway to the map-based reference on
// random policies and record streams: the same verdict for every
// record and the same Stats, quarantines and rate-window origin after
// every step, across blocks and expiries, policy and budget swaps
// mid-window, resumed quarantines and seeded rate windows.
func FuzzGatewayClassify(f *testing.F) {
	f.Add([]byte{0x03, 0xFF, 0x01, 0x3F, 0x00, 1, 2, 3, 4, 0, 1, 0, 2, 1, 1, 0, 0, 2, 0, 3})
	f.Add([]byte{0x02, 0, 0, 0x0C, 0x00, 1, 1, 1, 0, 2, 1, 0, 2, 2, 0, 3, 4, 6, 0x07, 0x3F, 0, 0, 2, 2, 0, 5})
	f.Add([]byte{0x01, 0x40, 0x00, 0, 6, 1, 0, 7, 0, 1, 4, 8, 0, 3, 9, 0x81, 0, 1, 4, 2, 0, 6, 5})
	f.Add([]byte{0x07, 0x22, 0x01, 0x1F, 0x00, 2, 3, 0, 5, 1, 1, 5, 5, 1, 2, 2, 7, 0x05, 0x0A, 0x00, 1, 1, 0, 1, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := program(data)
		cfg := prog.config()
		p, err := NewPolicy(cfg)
		if err != nil {
			t.Fatalf("NewPolicy(%+v): %v", cfg, err)
		}
		checkPolicy(t, p, cfg)
		g, ref := NewWithPolicy(p), newRefGateway(cfg)
		var now time.Duration
		later := func() time.Duration {
			gap := fuzzGaps[int(prog.next())%len(fuzzGaps)]
			if now > math.MaxInt64-gap {
				return math.MaxInt64
			}
			return now + gap
		}
		for step := 0; len(prog) > 0; step++ {
			switch op := prog.next() % 10; op {
			case 0, 1, 2, 3:
				now = later()
				id := prog.id()
				rec := trace.Record{Time: now, Frame: can.Frame{ID: id, Extended: id > can.MaxStandardID || prog.next()&1 != 0}}
				if got, want := g.Classify(rec), ref.Classify(rec); got != want {
					t.Fatalf("step %d: %v at %v classified %v, reference %v", step, id, now, got, want)
				}
			case 4:
				id, until := prog.id(), time.Duration(0)
				if prog.next()&1 != 0 {
					until = later()
				}
				g.Block(id, until)
				ref.Block(id, until)
			case 5:
				id := prog.id()
				g.Unblock(id)
				ref.Unblock(id)
			case 6:
				cfg = prog.config()
				if p, err = NewPolicy(cfg); err != nil {
					t.Fatalf("NewPolicy(%+v): %v", cfg, err)
				}
				checkPolicy(t, p, cfg)
				if err := g.SetPolicy(p); err != nil {
					t.Fatal(err)
				}
				ref.setPolicy(cfg)
			case 7:
				cfg.Budgets = prog.budgets()
				if err := g.SetBudgets(cfg.Budgets); err != nil {
					t.Fatal(err)
				}
				checkPolicy(t, g.Policy(), cfg)
				ref.setPolicy(cfg)
			case 8:
				cfg.Legal = prog.ids()
				g.SetLegal(cfg.Legal)
				checkPolicy(t, g.Policy(), cfg)
				ref.setPolicy(cfg)
			case 9:
				switch prog.next() % 3 {
				case 0:
					q := map[can.ID]time.Duration{prog.id(): later(), prog.id(): 0}
					g.RestoreQuarantines(q)
					ref.RestoreQuarantines(q)
				case 1:
					g.SeedRateWindow(now)
					ref.SeedRateWindow(now)
				case 2:
					g.Reset()
					ref.Reset()
				}
			}
			if got, want := g.Stats(), ref.stats; got != want {
				t.Fatalf("step %d: stats %+v, reference %+v", step, got, want)
			}
			if !maps.Equal(g.blocked, ref.blocked) {
				t.Fatalf("step %d: blocklist %v, reference %v", step, g.blocked, ref.blocked)
			}
			if start, open := g.RateWindowStart(); start != ref.windowStart || open != ref.haveWindow {
				t.Fatalf("step %d: rate window %v/%v, reference %v/%v", step, start, open, ref.windowStart, ref.haveWindow)
			}
		}
		if got, want := g.Blocked(), ref.Blocked(); !reflect.DeepEqual(got, want) {
			t.Fatalf("blocked %v, reference %v", got, want)
		}
		if got := g.Quarantines(); !maps.Equal(got, ref.blocked) {
			t.Fatalf("quarantines %v, reference %v", got, ref.blocked)
		}
	})
}

// checkPolicy fails t unless p exports cfg's legal set and budgets.
func checkPolicy(t *testing.T, p *Policy, cfg Config) {
	t.Helper()
	var legal []can.ID
	seen := make(map[can.ID]bool)
	for _, id := range cfg.Legal {
		if !seen[id] {
			seen[id] = true
			legal = append(legal, id)
		}
	}
	sort.Slice(legal, func(i, j int) bool { return legal[i] < legal[j] })
	if got := p.Legal(); !reflect.DeepEqual(got, legal) {
		t.Fatalf("Legal() = %v, configured %v", got, legal)
	}
	budgets := cfg.Budgets
	if len(budgets) == 0 {
		budgets = nil
	}
	if got := p.Budgets(); !reflect.DeepEqual(got, budgets) {
		t.Fatalf("Budgets() = %v, configured %v", got, budgets)
	}
}
