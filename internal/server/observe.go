package server

import (
	"sort"
	"sync"
	"time"

	"canids/internal/detect"
	"canids/internal/hist"
	"canids/internal/trace"
)

// watermarkCap bounds each bus's ingest-watermark ring. One mark is
// pushed per demuxed slab, and marks are consumed as alerts retire
// them, so the ring only fills when a bus goes a long stretch without
// alerting — then the oldest marks are the right ones to drop.
const watermarkCap = 1024

// mark pairs a slab's newest record timestamp (stream time) with the
// wall clock at which the demux delivered it — the raw material for
// end-to-end detection latency.
type mark struct {
	virtual time.Duration
	wall    time.Time
}

// busObs is one bus's latency state: the per-bus histograms handed to
// its engine as side-band timing hooks, the end-to-end detection
// histogram, and the ingest-watermark ring connecting the two clocks.
type busObs struct {
	pipeline *hist.Histogram // window close → window scored (engine Timing)
	detect   *hist.Histogram // record ingest → alert emit

	mu       sync.Mutex
	marks    [watermarkCap]mark
	head, n  int
	lastWall time.Time
	haveLast bool
}

// push records one demuxed slab's watermark: the newest record time it
// carried and the delivery wall clock. Called from the demux goroutine
// (the supervisor tap); allocation-free.
func (b *busObs) push(virtual time.Duration, wall time.Time) {
	b.mu.Lock()
	if b.n == watermarkCap {
		// Full: drop the oldest mark. It would only have served an
		// alert even older than it, whose latency measurement is moot.
		b.head = (b.head + 1) % watermarkCap
		b.n--
	}
	b.marks[(b.head+b.n)%watermarkCap] = mark{virtual: virtual, wall: wall}
	b.n++
	b.lastWall = wall
	b.haveLast = true
	b.mu.Unlock()
}

// ingestWall resolves the wall clock at which the record that closed
// the given window arrived: a window ending at windowEnd can only
// close once a record with Time >= windowEnd is ingested, so the first
// retained mark at or past windowEnd is that arrival. Marks strictly
// before windowEnd are retired (later alerts only have later window
// ends). When no mark qualifies — the final flush at drain closes
// windows without a follow-up record — the newest delivery seen stands
// in, so every alert gets exactly one observation.
func (b *busObs) ingestWall(windowEnd time.Duration) (time.Time, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.n > 0 && b.marks[b.head].virtual < windowEnd {
		b.head = (b.head + 1) % watermarkCap
		b.n--
	}
	if b.n > 0 {
		return b.marks[b.head].wall, true
	}
	if b.haveLast {
		return b.lastWall, true
	}
	return time.Time{}, false
}

// observability is the server's latency-histogram registry. Fixed
// histograms are allocated up front; per-bus sets appear with their
// bus (get-or-create under an RWMutex — the hot paths only ever take
// the read lock).
type observability struct {
	ingest     *hist.Histogram                         // whole Ingest call
	decode     [trace.FormatBinary + 1]*hist.Histogram // Ingest minus feed wait, per format
	checkpoint *hist.Histogram                         // one Save, fault seam included

	mu    sync.RWMutex
	buses map[string]*busObs
}

func newObservability() *observability {
	o := &observability{
		ingest:     hist.New(),
		checkpoint: hist.New(),
		buses:      make(map[string]*busObs),
	}
	for i := range o.decode {
		o.decode[i] = hist.New()
	}
	return o
}

// bus returns the channel's latency state, creating it on first use.
func (o *observability) bus(ch string) *busObs {
	o.mu.RLock()
	b := o.buses[ch]
	o.mu.RUnlock()
	if b != nil {
		return b
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if b = o.buses[ch]; b == nil {
		b = &busObs{pipeline: hist.New(), detect: hist.New()}
		o.buses[ch] = b
	}
	return b
}

// snapshotBuses returns the per-bus states sorted by channel, for the
// scrape renderer (sorted names keep the exposition byte-stable).
func (o *observability) snapshotBuses() (names []string, obs []*busObs) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	names = make([]string, 0, len(o.buses))
	for ch := range o.buses {
		names = append(names, ch)
	}
	sort.Strings(names)
	obs = make([]*busObs, len(names))
	for i, ch := range names {
		obs[i] = o.buses[ch]
	}
	return names, obs
}

// observeTap is the supervisor-tap leg of end-to-end detection
// latency: stamp the slab's newest record time against the wall clock.
// Runs on the demux goroutine for every slab, in both classic and
// fleet mode; allocation-free after a bus's first slab.
func (s *Server) observeTap(channel string, slab []trace.Record) {
	if s.obs == nil || len(slab) == 0 {
		return
	}
	// Records are non-decreasing in time per bus, so the last record
	// carries the slab's high-water mark.
	s.obs.bus(channel).push(slab[len(slab)-1].Time, time.Now())
}

// observeAlert is the alert leg: resolve the closing record's ingest
// wall clock from the bus's watermark ring and observe the distance to
// now. Called from recordAlert (the supervisor serializes sink calls).
func (s *Server) observeAlert(channel string, a detect.Alert) {
	if s.obs == nil {
		// Unit tests drive recordAlert on a bare Server literal; a
		// server built by New always has the registry.
		return
	}
	b := s.obs.bus(channel)
	if wall, ok := b.ingestWall(a.WindowEnd); ok {
		b.detect.Observe(time.Since(wall))
	}
}
