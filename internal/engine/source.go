package engine

import (
	"context"
	"io"

	"canids/internal/trace"
)

// Source is a stream of CAN records in non-decreasing timestamp order.
// Next returns io.EOF when the stream ends. trace.Decoder satisfies
// Source, so any log format streams straight into the engine.
type Source interface {
	Next() (trace.Record, error)
}

// SliceSource streams an in-memory trace.
type SliceSource struct {
	tr trace.Trace
	i  int
}

// NewSliceSource returns a Source over the given records. The trace is
// not copied; it must not be mutated while the engine runs.
func NewSliceSource(tr trace.Trace) *SliceSource { return &SliceSource{tr: tr} }

// Next implements Source.
func (s *SliceSource) Next() (trace.Record, error) {
	if s.i >= len(s.tr) {
		return trace.Record{}, io.EOF
	}
	r := s.tr[s.i]
	s.i++
	return r, nil
}

// ChanSource adapts a record channel — e.g. one fed by a live bus tap —
// into a Source. The stream ends when the channel is closed. The context
// bounds the wait for the next record: a canceled context unblocks a
// consumer whose producer has stalled, which a plain channel receive
// could not.
type ChanSource struct {
	ctx context.Context
	ch  <-chan trace.Record
}

// NewChanSource returns a Source reading from ch until it closes or ctx
// is canceled.
func NewChanSource(ctx context.Context, ch <-chan trace.Record) *ChanSource {
	return &ChanSource{ctx: ctx, ch: ch}
}

// Next implements Source.
func (s *ChanSource) Next() (trace.Record, error) {
	select {
	case rec, ok := <-s.ch:
		if !ok {
			return trace.Record{}, io.EOF
		}
		return rec, nil
	case <-s.ctx.Done():
		return trace.Record{}, s.ctx.Err()
	}
}

// NewLogSource opens a log stream in the given format as a Source. It is
// the engine's reader path for captures on disk: records decode one at a
// time, so a capture never has to fit in memory.
func NewLogSource(r io.Reader, f trace.Format) (Source, error) {
	return trace.NewDecoder(f, r)
}

// BatchSource is a Source whose records arrive in slabs, so consumers
// (the multi-bus supervisor, the serving feed) can move whole batches
// per channel operation instead of paying one send per record.
//
// NextBatch returns a non-empty slab or an error; io.EOF ends the
// stream. The returned slab is only valid until the next NextBatch
// call — the source may recycle it through a pool right after.
type BatchSource interface {
	Source
	NextBatch() ([]trace.Record, error)
}

// ChanBatchSource adapts a channel of record slabs into a Source /
// BatchSource — the serving layer's feed path. The stream ends when the
// channel closes; the context bounds the wait like ChanSource. Each
// consumed slab is handed to recycle (when set) as soon as the consumer
// moves past it, closing the producer's pool loop.
type ChanBatchSource struct {
	// Idle, when set, runs on the consumer's goroutine each time the
	// source finds the channel empty, just before it blocks for the
	// next slab — the serving layer writes its staged capture group
	// there. Unset, the source goes straight to the blocking receive.
	Idle func()

	ctx     context.Context
	ch      <-chan []trace.Record
	recycle func([]trace.Record)

	cur  []trace.Record // slab being iterated by per-record Next
	next int
	prev []trace.Record // last slab returned by NextBatch, not yet recycled
}

// NewChanBatchSource returns a source reading record slabs from ch
// until it closes or ctx is canceled.
func NewChanBatchSource(ctx context.Context, ch <-chan []trace.Record, recycle func([]trace.Record)) *ChanBatchSource {
	return &ChanBatchSource{ctx: ctx, ch: ch, recycle: recycle}
}

// NextBatch implements BatchSource. Empty slabs from the producer are
// skipped.
func (s *ChanBatchSource) NextBatch() ([]trace.Record, error) {
	if s.prev != nil {
		if s.recycle != nil {
			s.recycle(s.prev)
		}
		s.prev = nil
	}
	for {
		slab, ok, err := s.recv()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, io.EOF
		}
		if len(slab) == 0 {
			if s.recycle != nil {
				s.recycle(slab)
			}
			continue
		}
		s.prev = slab
		return slab, nil
	}
}

// recv receives the next slab, running Idle first when none is
// waiting.
func (s *ChanBatchSource) recv() ([]trace.Record, bool, error) {
	if s.Idle != nil {
		select {
		case slab, ok := <-s.ch:
			return slab, ok, nil
		default:
			s.Idle()
		}
	}
	select {
	case slab, ok := <-s.ch:
		return slab, ok, nil
	case <-s.ctx.Done():
		return nil, false, s.ctx.Err()
	}
}

// Next implements Source by iterating the slabs record by record — the
// engine's lane consumes the feed this way, so channel operations
// amortize across the slab while the per-record contract stays intact.
func (s *ChanBatchSource) Next() (trace.Record, error) {
	if s.next >= len(s.cur) {
		slab, err := s.NextBatch()
		if err != nil {
			return trace.Record{}, err
		}
		// NextBatch tracked the slab as prev; the iterator owns it now
		// and recycles it itself once it moves past the last record.
		s.cur, s.next, s.prev = slab, 0, nil
	}
	r := s.cur[s.next]
	s.next++
	if s.next >= len(s.cur) {
		if s.recycle != nil {
			s.recycle(s.cur)
		}
		s.cur = nil
		s.next = 0
	}
	return r, nil
}
