package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"canids/internal/can"
	"canids/internal/journal"
)

// captureSlabs splits a served trace into per-channel slabs of at most
// 64 records, the way the serving demux hands them to the capture.
func captureSlabs(tr Trace) [][]Record {
	open := make(map[string][]Record)
	var out [][]Record
	for _, r := range tr {
		s := append(open[r.Channel], r)
		if len(s) == 64 {
			out = append(out, s)
			s = nil
		}
		open[r.Channel] = s
	}
	for _, s := range open {
		if len(s) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// roundTrip encodes slab behind a prefix, checks the prefix survives,
// and decodes the entry back.
func roundTrip(t *testing.T, slab []Record) []byte {
	t.Helper()
	prefix := []byte("prefix")
	out, err := AppendCapture(prefix, slab)
	if err != nil {
		t.Fatalf("AppendCapture: %v", err)
	}
	if !bytes.HasPrefix(out, []byte("prefix")) {
		t.Fatal("AppendCapture overwrote dst's bytes")
	}
	entry := out[len(prefix):]
	back, err := DecodeCapture(nil, entry)
	if err != nil {
		t.Fatalf("DecodeCapture of an accepted slab: %v", err)
	}
	if len(back) != len(slab) {
		t.Fatalf("decoded %d records, encoded %d", len(back), len(slab))
	}
	for i := range slab {
		if back[i] != slab[i] {
			t.Fatalf("record %d: %+v, encoded %+v", i, back[i], slab[i])
		}
	}
	return entry
}

// TestCaptureRoundTrip: demuxed slabs of a served trace, and slabs
// built to reach every corner of the layout — times out of order and at
// the int64 extremes, extended and remote frames, injected records,
// empty and changing sources, more sources than the entry interns —
// decode back to themselves, field for field.
func TestCaptureRoundTrip(t *testing.T) {
	tr := servedTrace(4000)
	frames, written := 0, 0
	for _, slab := range captureSlabs(tr) {
		written += len(roundTrip(t, slab))
		frames += len(slab)
	}
	if perFrame := float64(written) / float64(frames); perFrame > 16 {
		t.Errorf("served trace captures at %.1f bytes/frame, want at most 16", perFrame)
	}

	ext := can.Frame{ID: can.MaxExtendedID, Extended: true, Len: 8, Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}}
	remote := can.Frame{ID: 0x7FF, Remote: true, Len: 3, Data: [8]byte{9, 9, 9}}
	odd := []Record{
		{Time: math.MaxInt64, Frame: ext, Channel: "c", Source: "a", Injected: true},
		{Time: math.MinInt64, Frame: remote, Channel: "c"},
		{Time: -1, Frame: can.Frame{ID: 0x123}, Channel: "c", Source: "b"},
		{Time: 5 * time.Second, Frame: ext, Channel: "c", Source: "a"},
		{Time: 5 * time.Second, Frame: remote, Channel: "c", Source: "", Injected: true},
		{Time: time.Second, Frame: ext, Channel: "c", Source: "b"},
	}
	roundTrip(t, odd)
	// Source churn past the table: every name new, then every name
	// again, so references and uninterned literals both occur.
	var churn []Record
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 2*maxCaptureSources; i++ {
			churn = append(churn, Record{Time: time.Duration(i), Frame: remote, Channel: "chan\x00nel", Source: "ecu-" + strconv.Itoa(i)})
		}
	}
	roundTrip(t, churn)
	// Time deltas and identifiers at every varint length boundary.
	var edges []Record
	var at time.Duration
	for shift := 0; shift < 63; shift++ {
		for _, d := range []int64{1<<shift - 1, 1 << shift, -(1 << shift), -(1 << shift) + 1} {
			at += time.Duration(d)
			id := can.ID(1<<min(shift, 28) - 1)
			edges = append(edges, Record{Time: at, Frame: can.Frame{ID: id, Extended: id > can.MaxStandardID}, Channel: "c"})
		}
	}
	roundTrip(t, edges)
	// Every record at the size bound: ten-byte time deltas, five-byte
	// identifiers, eight data bytes and a source reference, into a
	// buffer with no spare room.
	worst := make([]Record, 64)
	for i := range worst {
		worst[i] = Record{Time: time.Duration(i%2) << 62, Frame: ext, Channel: "c", Source: []string{"a", "b"}[i%2]}
	}
	entry, err := AppendCapture(nil, worst)
	if err != nil {
		t.Fatal(err)
	}
	if limit := len(captureMagic) + 3 + len(worst)*maxCaptureRecord + 2*2; len(entry) > limit || len(entry) < len(worst)*(maxCaptureRecord-1) {
		t.Errorf("worst-case slab encodes to %d bytes, bound %d", len(entry), limit)
	}
	roundTrip(t, worst)
	// An empty slab is a legal entry.
	if entry := roundTrip(t, nil); len(entry) != len(captureMagic)+2 {
		t.Errorf("empty slab encodes to %d bytes", len(entry))
	}
}

// TestCaptureRejects: a slab the entry cannot carry is refused with
// dst unchanged, and a damaged entry is refused rather than misread.
func TestCaptureRejects(t *testing.T) {
	good := Record{Frame: can.MustFrame(0x100, []byte{1}), Channel: "a"}
	for name, slab := range map[string][]Record{
		"mixed channels": {good, {Frame: good.Frame, Channel: "b"}},
		"identifier":     {good, {Frame: can.Frame{ID: 0x800}, Channel: "a"}},
		"dlc":            {{Frame: can.Frame{ID: 1, Len: 9}, Channel: "a"}},
	} {
		dst := []byte("dst")
		out, err := AppendCapture(dst, slab)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !bytes.Equal(out, []byte("dst")) {
			t.Errorf("%s: rejected slab changed dst to %q", name, out)
		}
	}
	if _, err := AppendCapture(nil, []Record{good, {Frame: good.Frame, Channel: "b"}}); !errors.Is(err, ErrCaptureChannel) {
		t.Errorf("mixed channels: %v, want ErrCaptureChannel", err)
	}

	entry, err := AppendCapture(nil, []Record{good, good})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(entry); cut++ {
		if _, err := DecodeCapture(nil, entry[:cut]); err == nil {
			t.Errorf("entry cut at %d of %d bytes decoded", cut, len(entry))
		}
	}
	if _, err := DecodeCapture(nil, append(entry[:len(entry):len(entry)], 0)); err == nil {
		t.Error("entry with a trailing byte decoded")
	}
	forged := append([]byte(nil), captureMagic[:]...)
	forged = binary.AppendUvarint(forged, 1<<40)
	if _, err := DecodeCapture(nil, append(forged, 0)); err == nil {
		t.Error("entry claiming 2^40 records decoded")
	}
}

// TestCaptureEncodeSteadyStateAllocs pins the capture encoder at zero
// allocations per slab once its buffer has room.
func TestCaptureEncodeSteadyStateAllocs(t *testing.T) {
	slabs := vehicleSlabs(t, 4096)
	buf := make([]byte, 0, 4096)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = AppendCapture(buf[:0], slabs[i%len(slabs)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("AppendCapture: %v allocs per slab, want 0", n)
	}
}

// vehicleSlabs is bus traffic shaped like the simulator's Fusion
// profile — eleven ECUs, each sending the identifiers of its own range
// with 4 to 8 data bytes, a few hundred microseconds apart — read back
// through the binary decoder, whose names are interned as on the serve
// path, and split into demuxed slabs.
func vehicleSlabs(tb testing.TB, n int) [][]Record {
	tb.Helper()
	ecus := []struct {
		name   string
		lo, hi can.ID
	}{
		{"PCM", 0x080, 0x17F}, {"ABS", 0x180, 0x23F}, {"EPAS", 0x240, 0x2FF}, {"RCM", 0x300, 0x37F},
		{"BCM", 0x380, 0x47F}, {"IPC", 0x480, 0x52F}, {"HVAC", 0x530, 0x5BF}, {"ACM", 0x5C0, 0x64F},
		{"SCCM", 0x650, 0x6BF}, {"LCM", 0x6C0, 0x72F}, {"GWM", 0x730, 0x7DF},
	}
	rng := rand.New(rand.NewSource(5))
	tr := make(Trace, n)
	var t time.Duration
	for i := range tr {
		e := ecus[rng.Intn(len(ecus))]
		data := make([]byte, 4+rng.Intn(5))
		rng.Read(data)
		t += time.Duration(100_000 + rng.Intn(800_000))
		tr[i] = Record{Time: t, Frame: can.MustFrame(e.lo+can.ID(rng.Intn(int(e.hi-e.lo))), data), Channel: "ms-can", Source: e.name}
	}
	raw, err := AppendBinary(nil, tr)
	if err != nil {
		tb.Fatal(err)
	}
	if tr, err = ReadBinary(bytes.NewReader(raw)); err != nil {
		tb.Fatal(err)
	}
	return captureSlabs(tr)
}

// BenchmarkCaptureEncode compares the capture encoder with the CTR1
// binary encoding it replaced, per frame, on 64-record slabs of
// vehicle-shaped traffic.
func BenchmarkCaptureEncode(b *testing.B) {
	slabs := vehicleSlabs(b, 4096)
	for _, enc := range []struct {
		name string
		fn   func([]byte, []Record) ([]byte, error)
	}{
		{"capture", AppendCapture},
		{"binary", func(dst []byte, s []Record) ([]byte, error) { return AppendBinary(dst, Trace(s)) }},
	} {
		b.Run(enc.name, func(b *testing.B) {
			buf := make([]byte, 0, 8192)
			frames, bytes := 0, 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := slabs[i%len(slabs)]
				var err error
				if buf, err = enc.fn(buf[:0], s); err != nil {
					b.Fatal(err)
				}
				frames += len(s)
				bytes += len(buf)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
			b.ReportMetric(float64(bytes)/float64(frames), "B/frame")
		})
	}
}

// fuzzSlab builds a one-channel slab from fuzz bytes, 12 bytes a
// record: flags, DLC, a signed time step, an identifier, a source pick
// and data. The first record's time is start, so the deltas reach the
// int64 extremes.
func fuzzSlab(start int64, channel string, data []byte) []Record {
	var slab []Record
	t := time.Duration(start)
	for ; len(data) >= 12 && len(slab) < 512; data = data[12:] {
		c := data[:12]
		f := can.Frame{Extended: c[0]&1 != 0, Remote: c[0]&2 != 0, Len: c[1] % (can.MaxDataLen + 1)}
		f.ID = can.ID(binary.LittleEndian.Uint32(c[4:8]))
		if f.Extended {
			f.ID &= can.MaxExtendedID
		} else {
			f.ID &= can.MaxStandardID
		}
		copy(f.Data[:f.Len], c[4:])
		var source string
		if pick := int(c[8]) % (maxCaptureSources + 8); pick > 0 {
			source = "s" + strconv.Itoa(pick)
		}
		if len(slab) > 0 {
			t += time.Duration(int16(binary.LittleEndian.Uint16(c[2:4]))) * time.Duration(c[9])
		}
		slab = append(slab, Record{Time: t, Frame: f, Channel: channel, Source: source, Injected: c[0]&4 != 0})
	}
	return slab
}

// FuzzCaptureRoundTrip is the capture codec's differential check: a
// slab built from the input encodes and decodes back to itself field
// for field, and the raw input, read as an entry, never panics and
// never makes the decoder allocate past a journal entry's bound. An
// entry the decoder accepts re-encodes to one that decodes to the same
// records.
func FuzzCaptureRoundTrip(f *testing.F) {
	tr := servedTrace(256)
	for _, slab := range captureSlabs(tr)[:2] {
		entry, err := AppendCapture(nil, slab)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(int64(slab[0].Time), slab[0].Channel, entry)
	}
	f.Add(int64(math.MaxInt64), "", bytes.Repeat([]byte{0xff, 0x08, 0x00, 0x80, 1, 2, 3, 4, 5, 6, 7, 8}, 8))
	f.Add(int64(math.MinInt64), "nul\x00", []byte("CTC1\x02\x00"))
	f.Fuzz(func(t *testing.T, start int64, channel string, data []byte) {
		slab := fuzzSlab(start, channel, data)
		entry, err := AppendCapture(nil, slab)
		if err != nil {
			t.Fatalf("AppendCapture of a valid slab: %v", err)
		}
		back, err := DecodeCapture(nil, entry)
		if err != nil {
			t.Fatalf("DecodeCapture of an encoded slab: %v", err)
		}
		if len(back) != len(slab) {
			t.Fatalf("decoded %d records, encoded %d", len(back), len(slab))
		}
		for i := range slab {
			if back[i] != slab[i] {
				t.Fatalf("record %d: %+v, encoded %+v", i, back[i], slab[i])
			}
		}

		// The raw bytes, and the same bytes behind the magic so the
		// decoder gets past it.
		for _, raw := range [][]byte{data, append(captureMagic[:len(captureMagic):len(captureMagic)], data...)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := DecodeCapture(nil, raw)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > journal.MaxEntry {
				t.Fatalf("decoding %d bytes allocated %d bytes", len(raw), grew)
			}
			if err != nil {
				continue
			}
			re, err := AppendCapture(nil, got)
			if err != nil {
				t.Fatalf("re-encoding a decoded entry: %v", err)
			}
			again, err := DecodeCapture(nil, re)
			if err != nil || !slices.Equal(again, got) {
				t.Fatalf("re-encoded entry decodes to %v (%v), want %v", again, err, got)
			}
		}
	})
}
