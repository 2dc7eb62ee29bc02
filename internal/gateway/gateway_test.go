package gateway

import (
	"maps"
	"math"
	"testing"
	"time"

	"canids/internal/can"
	"canids/internal/trace"
)

func rec(at time.Duration, id can.ID) trace.Record {
	return trace.Record{Time: at, Frame: can.Frame{ID: id}}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{RateSlack: -1}); err == nil {
		t.Error("negative slack should fail")
	}
	if _, err := New(Config{RateSlack: 2}); err == nil {
		t.Error("rate limiting without window should fail")
	}
	if _, err := New(DefaultConfig(nil)); err != nil {
		t.Errorf("default config: %v", err)
	}
}

func TestVerdictString(t *testing.T) {
	want := map[Verdict]string{
		Forward: "forward", DropUnknown: "drop-unknown",
		DropRate: "drop-rate", DropBlocked: "drop-blocked",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), s)
		}
	}
	if Verdict(9).String() != "Verdict(9)" {
		t.Error("unknown verdict string")
	}
}

func TestWhitelist(t *testing.T) {
	g, err := New(DefaultConfig([]can.ID{0x100, 0x200}))
	if err != nil {
		t.Fatal(err)
	}
	if v := g.Classify(rec(0, 0x100)); v != Forward {
		t.Errorf("legal ID verdict %v", v)
	}
	if v := g.Classify(rec(0, 0x300)); v != DropUnknown {
		t.Errorf("unknown ID verdict %v", v)
	}
	st := g.Stats()
	if st.Forwarded != 1 || st.DropUnknown != 1 || st.Dropped() != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestNoWhitelistForwardsAll(t *testing.T) {
	g, err := New(DefaultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if v := g.Classify(rec(0, 0x7FF)); v != Forward {
		t.Errorf("verdict %v, want forward", v)
	}
}

func TestBlocklist(t *testing.T) {
	g, err := New(DefaultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	g.Block(0x123, 0) // forever
	g.Block(0x200, 5*time.Second)
	if v := g.Classify(rec(time.Second, 0x123)); v != DropBlocked {
		t.Errorf("blocked ID verdict %v", v)
	}
	if v := g.Classify(rec(time.Second, 0x200)); v != DropBlocked {
		t.Errorf("timed block verdict %v", v)
	}
	// After expiry the timed block lifts.
	if v := g.Classify(rec(6*time.Second, 0x200)); v != Forward {
		t.Errorf("expired block verdict %v", v)
	}
	if ids := g.Blocked(); len(ids) != 1 || ids[0] != 0x123 {
		t.Errorf("Blocked() = %v", ids)
	}
	g.Unblock(0x123)
	if v := g.Classify(rec(7*time.Second, 0x123)); v != Forward {
		t.Errorf("unblocked verdict %v", v)
	}
}

// trainingWindows builds n windows where 0x100 appears 10x and 0x200 2x.
func trainingWindows(n int) []trace.Trace {
	var ws []trace.Trace
	for w := 0; w < n; w++ {
		start := time.Duration(w) * time.Second
		var tr trace.Trace
		for i := 0; i < 10; i++ {
			tr = append(tr, rec(start+time.Duration(i)*100*time.Millisecond, 0x100))
		}
		for i := 0; i < 2; i++ {
			tr = append(tr, rec(start+time.Duration(i)*500*time.Millisecond, 0x200))
		}
		tr.Sort()
		ws = append(ws, tr)
	}
	return ws
}

func TestRateLimiting(t *testing.T) {
	g, err := New(Config{RateWindow: time.Second, RateSlack: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.LearnRates(trainingWindows(5)); err != nil {
		t.Fatalf("LearnRates: %v", err)
	}
	// 0x100 budget = 20/window. The 21st frame in one window drops.
	var verdicts []Verdict
	for i := 0; i < 25; i++ {
		verdicts = append(verdicts, g.Classify(rec(time.Duration(i)*30*time.Millisecond, 0x100)))
	}
	drops := 0
	for _, v := range verdicts {
		if v == DropRate {
			drops++
		}
	}
	if drops != 5 {
		t.Errorf("drops = %d, want 5 (25 frames vs budget 20)", drops)
	}
	// The next window resets the budget.
	if v := g.Classify(rec(1500*time.Millisecond, 0x100)); v != Forward {
		t.Errorf("fresh window verdict %v", v)
	}
}

func TestRateLimitUnknownBudgetForwards(t *testing.T) {
	g, err := New(Config{RateWindow: time.Second, RateSlack: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.LearnRates(trainingWindows(3)); err != nil {
		t.Fatal(err)
	}
	// An ID with no learned budget is not rate-limited (whitelisting is
	// a separate policy).
	for i := 0; i < 50; i++ {
		if v := g.Classify(rec(time.Duration(i)*time.Millisecond, 0x650)); v != Forward {
			t.Fatalf("unbudgeted ID verdict %v", v)
		}
	}
}

func TestLearnRatesValidation(t *testing.T) {
	g, err := New(DefaultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.LearnRates(trainingWindows(3)); err == nil {
		t.Error("LearnRates with disabled limiting should fail")
	}
	g2, err := New(Config{RateWindow: time.Second, RateSlack: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.LearnRates(nil); err == nil {
		t.Error("LearnRates with no windows should fail")
	}
}

func TestFilter(t *testing.T) {
	g, err := New(DefaultConfig([]can.ID{0x100}))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Trace{rec(0, 0x100), rec(1, 0x999), rec(2, 0x100)}
	out, st := g.Filter(tr)
	if len(out) != 2 || st.DropUnknown != 1 {
		t.Errorf("Filter: %d forwarded, stats %+v", len(out), st)
	}
}

// TestRateWindowExtremeGap is the regression test for the hand-rolled
// window walk the gateway used to share with pre-PR-2 core: a huge
// timestamp jump (fuzzed logs, absolute epochs) must advance the rate
// window arithmetically, not one iteration per elapsed window — the
// naive loop spins for billions of iterations on this input — and the
// expiry check must not wrap at the top of the int64 range.
func TestRateWindowExtremeGap(t *testing.T) {
	g, err := New(Config{RateWindow: time.Second, RateSlack: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.LearnRates(trainingWindows(3)); err != nil {
		t.Fatal(err)
	}
	// Budget for 0x100 is 20/window: exhaust most of the first window...
	for i := 0; i < 15; i++ {
		if v := g.Classify(rec(time.Duration(i)*time.Millisecond, 0x100)); v != Forward {
			t.Fatalf("frame %d verdict %v", i, v)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// ...then jump almost the whole timestamp range forward. The
		// fresh window must reset the budget.
		if v := g.Classify(rec(math.MaxInt64-time.Hour, 0x100)); v != Forward {
			t.Errorf("post-gap verdict %v, want forward (fresh window)", v)
		}
		// At the very top of the range, start+window overflows int64;
		// the guard keeps the last window open instead of wrapping.
		for i := 0; i < 30; i++ {
			g.Classify(rec(math.MaxInt64-time.Duration(30-i), 0x100))
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("extreme-gap classification did not return (window walk spinning?)")
	}
	// A negative-to-positive jump wider than int64 can express in one
	// difference: remainder arithmetic must still land a valid window.
	g2, err := New(Config{RateWindow: time.Second, RateSlack: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.LearnRates(trainingWindows(3)); err != nil {
		t.Fatal(err)
	}
	g2.Classify(rec(math.MinInt64+time.Hour, 0x100))
	if v := g2.Classify(rec(math.MaxInt64-time.Hour, 0x100)); v != Forward {
		t.Errorf("cross-range gap verdict %v, want forward", v)
	}
}

// TestBlockNeverShortens pins the max-deadline rule: a later block for
// the same identifier can only extend the quarantine.
func TestBlockNeverShortens(t *testing.T) {
	g, err := New(DefaultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	// A forever block survives a later finite one.
	g.Block(0x100, 0)
	g.Block(0x100, 5*time.Second)
	if v := g.Classify(rec(time.Hour, 0x100)); v != DropBlocked {
		t.Errorf("forever block was shortened: verdict %v at t=1h", v)
	}
	// A longer deadline survives a later shorter one.
	g.Block(0x200, 10*time.Second)
	g.Block(0x200, 5*time.Second)
	if v := g.Classify(rec(7*time.Second, 0x200)); v != DropBlocked {
		t.Errorf("10s block was shortened to 5s: verdict %v at t=7s", v)
	}
	// A later longer deadline extends.
	g.Block(0x300, 5*time.Second)
	g.Block(0x300, 10*time.Second)
	if v := g.Classify(rec(7*time.Second, 0x300)); v != DropBlocked {
		t.Errorf("block was not extended: verdict %v at t=7s", v)
	}
	// A later forever block upgrades a finite one.
	g.Block(0x400, 5*time.Second)
	g.Block(0x400, 0)
	if v := g.Classify(rec(time.Hour, 0x400)); v != DropBlocked {
		t.Errorf("forever upgrade lost: verdict %v at t=1h", v)
	}
}

// TestBlockExpiryBoundary pins the half-open quarantine interval: a
// frame exactly at the deadline is forwarded, one tick before is not.
func TestBlockExpiryBoundary(t *testing.T) {
	g, err := New(DefaultConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	g.Block(0x100, 5*time.Second)
	if v := g.Classify(rec(5*time.Second-1, 0x100)); v != DropBlocked {
		t.Errorf("verdict %v just before the deadline", v)
	}
	if v := g.Classify(rec(5*time.Second, 0x100)); v != Forward {
		t.Errorf("verdict %v at the deadline, want forward", v)
	}
	if got := len(g.Blocked()); got != 0 {
		t.Errorf("expired block still listed: %d entries", got)
	}
}

// TestFilterReturnsDelta pins the documented contract: Filter's stats
// are the verdicts of that call alone, not the gateway's running total.
func TestFilterReturnsDelta(t *testing.T) {
	g, err := New(DefaultConfig([]can.ID{0x100}))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Trace{rec(0, 0x100), rec(1, 0x999)}
	if _, st := g.Filter(tr); st.Forwarded != 1 || st.DropUnknown != 1 {
		t.Fatalf("first Filter delta %+v", st)
	}
	out, st := g.Filter(trace.Trace{rec(2, 0x100)})
	if len(out) != 1 || st.Forwarded != 1 || st.DropUnknown != 0 {
		t.Errorf("second Filter delta %+v (cumulative leak?)", st)
	}
	if total := g.Stats(); total.Forwarded != 2 || total.DropUnknown != 1 {
		t.Errorf("cumulative stats %+v", total)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Forwarded: 10, DropUnknown: 4, DropRate: 3, DropBlocked: 2}
	b := Stats{Forwarded: 7, DropUnknown: 1, DropRate: 3, DropBlocked: 0}
	want := Stats{Forwarded: 3, DropUnknown: 3, DropRate: 0, DropBlocked: 2}
	if got := a.Sub(b); got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
	if got := a.Sub(Stats{}); got != a {
		t.Errorf("Sub(zero) = %+v, want %+v", got, a)
	}
}

// TestInterleavedBlockClassify exercises the engine's access pattern —
// classifying in timestamp order while the responder, on the same
// goroutine, blocks, inspects and lifts identifiers between frames —
// and checks no verdict goes uncounted.
func TestInterleavedBlockClassify(t *testing.T) {
	g, err := New(Config{RateWindow: time.Second, RateSlack: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.LearnRates(trainingWindows(3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		g.Classify(rec(time.Duration(i)*time.Millisecond, can.ID(0x100+i%4)))
		if i%4 == 0 {
			j := i / 4
			g.Block(can.ID(0x100+j%4), time.Duration(j)*time.Millisecond)
			g.Blocked()
			g.Stats()
			g.Unblock(can.ID(0x100 + (j+1)%4))
		}
	}
	if st := g.Stats(); st.Forwarded+st.Dropped() != 2000 {
		t.Errorf("lost verdicts: %+v", st)
	}
}

func TestResetKeepsPolicy(t *testing.T) {
	g, err := New(Config{RateWindow: time.Second, RateSlack: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.LearnRates(trainingWindows(3)); err != nil {
		t.Fatal(err)
	}
	g.Block(0x050, 0)
	g.Classify(rec(0, 0x100))
	g.Reset()
	if g.Stats() != (Stats{}) {
		t.Error("Reset should clear stats")
	}
	if v := g.Classify(rec(0, 0x050)); v != DropBlocked {
		t.Error("Reset must keep the blocklist")
	}
	if g.Budgets() == nil {
		t.Error("Reset must keep learned budgets")
	}
}

// TestInjectedBudgets pins the persisted-policy path: a gateway built
// with Config.Budgets enforces them as-is, without LearnRates and
// without a slack multiplier, and exports the same table back.
func TestInjectedBudgets(t *testing.T) {
	budgets := map[can.ID]int{0x100: 2, 0x200: 1}
	g, err := New(Config{RateWindow: time.Second, Budgets: budgets})
	if err != nil {
		t.Fatal(err)
	}
	exported := g.Budgets()
	if len(exported) != 2 || exported[0x100] != 2 || exported[0x200] != 1 {
		t.Fatalf("Budgets() = %v, want the injected table", exported)
	}
	// Mutating the export or the original must not affect the gateway.
	exported[0x100] = 99
	budgets[0x200] = 99
	for i, want := range []Verdict{Forward, Forward, DropRate} {
		if v := g.Classify(rec(time.Duration(i)*time.Millisecond, 0x100)); v != want {
			t.Errorf("0x100 frame %d: %v, want %v", i, v, want)
		}
	}
	if v := g.Classify(rec(4*time.Millisecond, 0x200)); v != Forward {
		t.Errorf("0x200 first frame: %v", v)
	}
	if v := g.Classify(rec(5*time.Millisecond, 0x200)); v != DropRate {
		t.Errorf("0x200 second frame: %v, want drop-rate", v)
	}
}

// TestInjectedBudgetsValidation covers the injected-table error paths.
func TestInjectedBudgetsValidation(t *testing.T) {
	if _, err := New(Config{Budgets: map[can.ID]int{0x1: 1}}); err == nil {
		t.Error("budgets without a rate window accepted")
	}
	if _, err := New(Config{RateWindow: time.Second, Budgets: map[can.ID]int{0x1: 0}}); err == nil {
		t.Error("zero budget accepted")
	}
}

// TestSetBudgets exercises the hot-swap setter: replacing, validating
// and disabling the budget table on a live gateway.
func TestSetBudgets(t *testing.T) {
	g, err := New(Config{RateWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if g.Budgets() != nil {
		t.Fatal("fresh gateway has budgets")
	}
	if err := g.SetBudgets(map[can.ID]int{0x100: 1}); err != nil {
		t.Fatal(err)
	}
	if v := g.Classify(rec(0, 0x100)); v != Forward {
		t.Errorf("first frame: %v", v)
	}
	if v := g.Classify(rec(time.Millisecond, 0x100)); v != DropRate {
		t.Errorf("second frame: %v, want drop-rate", v)
	}
	if err := g.SetBudgets(map[can.ID]int{0x100: -1}); err == nil {
		t.Error("negative budget accepted")
	}
	if err := g.SetBudgets(nil); err != nil {
		t.Fatal(err)
	}
	if v := g.Classify(rec(2*time.Millisecond, 0x100)); v != Forward {
		t.Errorf("after disabling budgets: %v, want forward", v)
	}
	noWin, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := noWin.SetBudgets(map[can.ID]int{0x1: 1}); err == nil {
		t.Error("SetBudgets without a rate window accepted")
	}
}

// TestSetLegal exercises the hot-swap whitelist setter.
func TestSetLegal(t *testing.T) {
	g, err := New(DefaultConfig([]can.ID{0x100}))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Legal(); len(got) != 1 || got[0] != 0x100 {
		t.Fatalf("Legal() = %v", got)
	}
	g.SetLegal([]can.ID{0x200})
	if v := g.Classify(rec(0, 0x100)); v != DropUnknown {
		t.Errorf("old legal ID after swap: %v, want drop-unknown", v)
	}
	if v := g.Classify(rec(0, 0x200)); v != Forward {
		t.Errorf("new legal ID after swap: %v, want forward", v)
	}
	g.SetLegal(nil)
	if v := g.Classify(rec(0, 0x300)); v != Forward {
		t.Errorf("whitelist disabled: %v, want forward", v)
	}
	if g.Legal() != nil {
		t.Error("Legal() after disable should be nil")
	}
}

// TestLearnedBudgetsExport pins that LearnRates' table round-trips
// through Budgets() into a fresh gateway with identical verdicts.
func TestLearnedBudgetsExport(t *testing.T) {
	var w trace.Trace
	for i := 0; i < 5; i++ {
		w = append(w, rec(time.Duration(i)*time.Millisecond, 0x123))
	}
	g, err := New(Config{RateWindow: time.Second, RateSlack: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.LearnRates([]trace.Trace{w}); err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{RateWindow: time.Second, Budgets: g.Budgets()})
	if err != nil {
		t.Fatal(err)
	}
	probe := make(trace.Trace, 8)
	for i := range probe {
		probe[i] = rec(time.Duration(i)*time.Millisecond, 0x123)
	}
	_, st1 := g.Filter(probe)
	_, st2 := restored.Filter(probe)
	if st1 != st2 {
		t.Errorf("restored budgets classify differently: %+v vs %+v", st2, st1)
	}
	if st1.DropRate == 0 {
		t.Error("probe should exceed the learned budget")
	}
}

// TestRateLearnerMatchesBatch pins the incremental learner to the
// batch path: feeding the same clean windows one at a time (in any
// order, with Trace and Counts forms mixed) yields exactly the budget
// table LearnRates derives, at several slack settings.
func TestRateLearnerMatchesBatch(t *testing.T) {
	mkWindow := func(seed int) trace.Trace {
		var w trace.Trace
		for i := 0; i < 3+seed%5; i++ {
			w = append(w, rec(time.Duration(i)*time.Millisecond, can.ID(0x100+seed%3)))
		}
		for i := 0; i < seed%7; i++ {
			w = append(w, rec(time.Duration(i)*time.Millisecond, 0x2A0))
		}
		return w
	}
	windows := []trace.Trace{{}} // empty window: both paths must skip it
	for seed := 0; seed < 12; seed++ {
		windows = append(windows, mkWindow(seed))
	}
	for _, slack := range []float64{1, 1.5, 2, 3.7} {
		g, err := New(Config{RateWindow: time.Second, RateSlack: slack})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.LearnRates(windows); err != nil {
			t.Fatal(err)
		}
		want := g.Budgets()

		l, err := NewRateLearner(slack)
		if err != nil {
			t.Fatal(err)
		}
		// Reverse order, alternating the window and counts forms: the
		// peaks are order-independent and the forms equivalent.
		for i := len(windows) - 1; i >= 0; i-- {
			if i%2 == 0 {
				l.ObserveWindow(windows[i])
			} else {
				l.ObserveCounts(windows[i].IDCounts())
			}
		}
		got, err := l.Budgets()
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got, want) {
			t.Errorf("slack %v: incremental budgets %v != batch %v", slack, got, want)
		}
		if l.Windows() != len(windows)-1 {
			t.Errorf("learner counted %d windows, want %d (empty skipped)", l.Windows(), len(windows)-1)
		}
	}
}

func TestRateLearnerValidation(t *testing.T) {
	if _, err := NewRateLearner(0); err == nil {
		t.Error("zero slack accepted")
	}
	l, err := NewRateLearner(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Budgets(); err == nil {
		t.Error("budgets from zero windows accepted")
	}
	l.ObserveCounts(nil) // empty: must not count
	if l.Windows() != 0 {
		t.Error("empty counts counted as a window")
	}
}

// classifyStream is a whitelisted, rate-limited gateway over 200
// legal 11-bit identifiers, with records cycling through them and two
// unknown ones at 100 µs spacing, and one identifier quarantined.
func classifyStream(t testing.TB) (*Gateway, trace.Trace) {
	legal := make([]can.ID, 200)
	budgets := make(map[can.ID]int, len(legal))
	for i := range legal {
		legal[i] = can.ID(i * 7)
		budgets[legal[i]] = 50
	}
	g, err := New(Config{Legal: legal, RateWindow: time.Second, Budgets: budgets})
	if err != nil {
		t.Fatal(err)
	}
	g.Block(legal[3], 0)
	tr := make(trace.Trace, 4096)
	for i := range tr {
		id := legal[i%len(legal)]
		if i%50 == 0 {
			id = 0x7FE
		}
		tr[i] = rec(time.Duration(i)*100*time.Microsecond, id)
	}
	return g, tr
}

// TestClassifySteadyStateAllocs pins Classify at zero allocations per
// frame once the rate window is open, with the whitelist, budgets and
// a quarantine all in play.
func TestClassifySteadyStateAllocs(t *testing.T) {
	g, tr := classifyStream(t)
	g.Filter(tr)
	i := 0
	if n := testing.AllocsPerRun(5000, func() {
		r := tr[i%len(tr)]
		r.Time += 2 * time.Second
		g.Classify(r)
		i++
	}); n != 0 {
		t.Errorf("Classify: %v allocs/frame, want 0", n)
	}
}

// BenchmarkClassify reports the per-frame cost of a warm gateway.
func BenchmarkClassify(b *testing.B) {
	g, tr := classifyStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr[i%len(tr)]
		r.Time += time.Duration(i/len(tr)) * time.Second
		g.Classify(r)
	}
}
