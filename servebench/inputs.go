package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"time"

	"canids/internal/engine/scenario"
	"canids/internal/sim"
	"canids/internal/trace"
)

// captureEpoch offsets every benchmark timestamp to a Unix-like capture
// time, as real candump logs carry. It also keeps the candump seconds
// field at a fixed ten digits, which is what lets a rendered body be
// re-stamped in place.
const captureEpoch = 1_700_000_000 * time.Second

// campaignLead skips the scenarios' attack-free lead-in, so attacked
// buses carry their campaign throughout the replayed cycle.
const campaignLead = 2 * time.Second

// stampDigits is the width of the candump seconds field under
// captureEpoch.
const stampDigits = 10

// busSource names the scenario one bus replays.
type busSource struct {
	channel string
	spec    scenario.Spec
}

// baseCycle simulates one cycle of a bus's traffic: the records of
// [campaignLead, campaignLead+cycle) of its scenario, re-based to
// captureEpoch and tagged with the bus channel.
func baseCycle(b busSource, cycle time.Duration) (trace.Trace, error) {
	spec := b.spec
	spec.Duration = campaignLead + cycle
	tr, err := spec.Run()
	if err != nil {
		return nil, err
	}
	out := make(trace.Trace, 0, len(tr))
	for _, r := range tr {
		if r.Time < campaignLead || r.Time >= campaignLead+cycle {
			continue
		}
		r.Time = r.Time - campaignLead + captureEpoch
		r.Channel = b.channel
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bus %s: scenario %s produced no traffic", b.channel, spec.Name)
	}
	return out, nil
}

// vehicleSpec derives a distinct vehicle from a catalogue scenario: the
// same profile and campaign, its own message phases and payload noise.
func vehicleSpec(s scenario.Spec, vehicle int) scenario.Spec {
	s.Seed = sim.SplitSeed(s.Seed, int64(0xF1EE7+vehicle))
	return s
}

// body is one pre-rendered request body. It is rendered once and
// re-stamped in place for every replay cycle, so neither rendering nor
// fresh input memory lands inside the measured run.
type body struct {
	// route is the request path and query.
	route  string
	format trace.Format
	// channel is the per-bus route's channel override ("" for a
	// mixed-bus body).
	channel string
	data    []byte
	// stamps holds the byte offset of each record's timestamp field,
	// in record order.
	stamps []int
	// recs are the records the server decodes from data at shift 0,
	// with the route's channel override applied.
	recs []trace.Record
	// byChannel splits recs by bus, in order.
	byChannel map[string][]trace.Record
}

// newBody renders recs in the given format and indexes the timestamp
// fields. Records must lie within captureEpoch's ten-digit seconds.
func newBody(route, channel string, format trace.Format, recs trace.Trace) (*body, error) {
	var buf bytes.Buffer
	if err := trace.Write(&buf, format, recs); err != nil {
		return nil, err
	}
	b := &body{route: route, format: format, channel: channel, data: buf.Bytes()}
	var err error
	if b.stamps, err = stampOffsets(format, b.data); err != nil {
		return nil, err
	}
	if b.recs, err = decodeAll(format, b.data); err != nil {
		return nil, err
	}
	if len(b.recs) != len(b.stamps) {
		return nil, fmt.Errorf("body %s: %d records but %d timestamp fields", route, len(b.recs), len(b.stamps))
	}
	b.byChannel = make(map[string][]trace.Record)
	for i := range b.recs {
		if channel != "" {
			b.recs[i].Channel = channel
		}
		ch := b.recs[i].Channel
		b.byChannel[ch] = append(b.byChannel[ch], b.recs[i])
	}
	return b, nil
}

// decodeAll decodes a whole body.
func decodeAll(format trace.Format, data []byte) ([]trace.Record, error) {
	dec, err := trace.NewDecoder(format, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return trace.ReadAll(dec)
}

// stampOffsets walks a rendered body and returns the offset of every
// record's timestamp field: the int64 at the head of each binary
// record, or the seconds digits after each candump line's "(".
func stampOffsets(format trace.Format, data []byte) ([]int, error) {
	var out []int
	switch format {
	case trace.FormatBinary:
		const header = 4 + 8 // magic + record count
		for off := header; off < len(data); {
			if off+13 > len(data) {
				return nil, fmt.Errorf("binary body truncated at %d", off)
			}
			out = append(out, off)
			frameLen := int(binary.LittleEndian.Uint16(data[off+8:]))
			metaLen := int(binary.LittleEndian.Uint16(data[off+10:]))
			off += 8 + 2 + 2 + 1 + frameLen + metaLen
		}
	case trace.FormatCandump:
		for off := 0; off < len(data); {
			end := bytes.IndexByte(data[off:], '\n')
			if end < 0 {
				return nil, fmt.Errorf("candump body: unterminated line at %d", off)
			}
			line := data[off : off+end]
			if len(line) < stampDigits+2 || line[0] != '(' || line[1+stampDigits] != '.' {
				return nil, fmt.Errorf("candump body: line %q has no %d-digit timestamp", line, stampDigits)
			}
			out = append(out, off+1)
			off += end + 1
		}
	default:
		return nil, fmt.Errorf("no in-place re-stamping for format %v", format)
	}
	return out, nil
}

// stamp rewrites the body's timestamps to its records' times plus
// shift. Candump shifts must be whole seconds, so only the seconds
// field changes.
func (b *body) stamp(shift time.Duration) {
	switch b.format {
	case trace.FormatBinary:
		for i, off := range b.stamps {
			binary.LittleEndian.PutUint64(b.data[off:], uint64(b.recs[i].Time+shift))
		}
	case trace.FormatCandump:
		var digits [20]byte
		for i, off := range b.stamps {
			sec := int64((b.recs[i].Time + shift) / time.Second)
			d := strconv.AppendInt(digits[:0], sec, 10)
			copy(b.data[off:off+stampDigits], d)
		}
	}
}

// frames is the record count of one request.
func (b *body) frames() int { return len(b.recs) }

// shifted appends b's records for one channel ("" for all), advanced by
// shift, to dst.
func (b *body) shifted(dst []trace.Record, channel string, shift time.Duration) []trace.Record {
	src := b.recs
	if channel != "" {
		src = b.byChannel[channel]
	}
	for _, r := range src {
		r.Time += shift
		dst = append(dst, r)
	}
	return dst
}

// traffic is a workload's input: request bodies, rendered once, and the
// plan that replays them as an endless, time-ordered request sequence.
//
// Requests rotate over streams (one mixed-bus stream, or one per
// vehicle or bus). Each stream owns perCycle consecutive bodies that
// together cover one cycle of its traffic; request j is body
// (j mod streams)·perCycle + (s mod perCycle) with s = j div streams,
// stamped (s div perCycle)·cycle later than the base.
type traffic struct {
	streams  int
	perCycle int
	cycle    time.Duration
	bodies   []*body
	channels []string
}

// request returns the body and time shift of request j.
func (t *traffic) request(j int) (*body, time.Duration) {
	stream, step := j%t.streams, j/t.streams
	b := t.bodies[stream*t.perCycle+step%t.perCycle]
	return b, time.Duration(step/t.perCycle) * t.cycle
}

// frames counts the records of requests [from, to).
func (t *traffic) frames(from, to int) int {
	n := 0
	for j := from; j < to; j++ {
		b, _ := t.request(j)
		n += b.frames()
	}
	return n
}

// cut cuts one stream's cycle into perCycle consecutive pieces of
// equal duration.
func cut(recs trace.Trace, cycle time.Duration, perCycle int) []trace.Trace {
	out := make([]trace.Trace, perCycle)
	step := cycle / time.Duration(perCycle)
	for _, r := range recs {
		i := int((r.Time - captureEpoch) / step)
		out[i] = append(out[i], r)
	}
	return out
}

// recordSource replays requests [0, n) of a traffic plan as one
// record stream, optionally restricted to one channel and to the
// requests a serving pass accepted — the exact records the server
// ingested, for the offline references and the layer ledger.
type recordSource struct {
	t       *traffic
	channel string
	n, j    int
	// ok, when non-nil, skips every request j with !ok[j].
	ok  []bool
	buf []trace.Record
	i   int
}

func newRecordSource(t *traffic, channel string, n int, ok []bool) *recordSource {
	return &recordSource{t: t, channel: channel, n: n, ok: ok}
}

// load makes the next accepted request's records the buffer, reporting
// false at the end of the stream.
func (s *recordSource) load() bool {
	for s.j < s.n && s.ok != nil && !s.ok[s.j] {
		s.j++
	}
	if s.j >= s.n {
		return false
	}
	b, shift := s.t.request(s.j)
	s.j++
	s.buf, s.i = b.shifted(s.buf[:0], s.channel, shift), 0
	return true
}

// Next implements engine.Source.
func (s *recordSource) Next() (trace.Record, error) {
	for s.i >= len(s.buf) {
		if !s.load() {
			return trace.Record{}, io.EOF
		}
	}
	r := s.buf[s.i]
	s.i++
	return r, nil
}

// NextBatch implements engine.BatchSource: one request's records per
// batch, like the serving feed.
func (s *recordSource) NextBatch() ([]trace.Record, error) {
	for {
		if s.i < len(s.buf) {
			out := s.buf[s.i:]
			s.i = len(s.buf)
			return out, nil
		}
		if !s.load() {
			return nil, io.EOF
		}
	}
}
