package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"canids/internal/can"
)

// TestRoundTripFrameFlags pins that no format silently drops the frame
// flags a capture can carry: extended identifiers that fit 11 bits and
// remote frames with a DLC survive write→decode in every format that
// can represent them (candump and CSV encode them candump-style; the
// binary layout stores the flags directly).
func TestRoundTripFrameFlags(t *testing.T) {
	tr := Trace{
		{Time: 1 * time.Millisecond, Channel: "c0", Frame: can.Frame{ID: 0x0F2, Extended: true}},
		{Time: 2 * time.Millisecond, Channel: "c0", Frame: can.Frame{ID: 0x100, Remote: true, Len: 4}},
		{Time: 3 * time.Millisecond, Channel: "c0", Frame: can.MustFrame(0x123, []byte{0xAB}), Source: "ecu", Injected: true},
	}
	for _, f := range []Format{FormatCandump, FormatCSV, FormatBinary} {
		var buf bytes.Buffer
		if err := Write(&buf, f, tr); err != nil {
			t.Fatalf("%v: write: %v", f, err)
		}
		dec, err := NewDecoder(f, &buf)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadAll(dec)
		if err != nil {
			t.Fatalf("%v: read: %v", f, err)
		}
		if len(back) != len(tr) {
			t.Fatalf("%v: %d records back, want %d", f, len(back), len(tr))
		}
		for i := range tr {
			if !back[i].Frame.Equal(tr[i].Frame) {
				t.Errorf("%v: record %d frame mutated: got %+v want %+v", f, i, back[i].Frame, tr[i].Frame)
			}
			if back[i].Time != tr[i].Time {
				t.Errorf("%v: record %d time mutated", f, i)
			}
		}
	}
}

// TestDecoderStreamsIncrementally checks a decoder yields records one
// at a time rather than reading ahead to the end.
func TestDecoderStreamsIncrementally(t *testing.T) {
	var buf bytes.Buffer
	tr := Trace{
		{Time: time.Second, Frame: can.MustFrame(0x123, []byte{1})},
		{Time: 2 * time.Second, Frame: can.MustFrame(0x124, []byte{2})},
	}
	if err := WriteCandump(&buf, tr); err != nil {
		t.Fatal(err)
	}
	d := NewCandumpDecoder(&buf)
	r1, err := d.Next()
	if err != nil || r1.Frame.ID != 0x123 {
		t.Fatalf("first record: %v %v", r1, err)
	}
	r2, err := d.Next()
	if err != nil || r2.Frame.ID != 0x124 {
		t.Fatalf("second record: %v %v", r2, err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestFormatForPath(t *testing.T) {
	cases := map[string]Format{
		"a.csv": FormatCSV, "A.CSV": FormatCSV,
		"a.bin": FormatBinary, "x/y/z.log": FormatCandump, "noext": FormatCandump,
	}
	for path, want := range cases {
		if got := FormatForPath(path); got != want {
			t.Errorf("FormatForPath(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestDecoderRejectsOutOfRangeTimestamps(t *testing.T) {
	if _, err := ReadCandump(strings.NewReader("(9223372036.000000) c0 123#00\n")); err == nil {
		t.Error("candump accepted an ns-overflowing timestamp")
	}
	if _, err := ReadCandump(strings.NewReader("(-1.000000) c0 123#00\n")); err == nil {
		t.Error("candump accepted a negative timestamp")
	}
	if _, err := ReadCSV(strings.NewReader("9223372036854775807,c,123,0,,x,0\n")); err == nil {
		t.Error("csv accepted a µs-overflowing timestamp")
	}
}

// TestTextDecoderSteadyStateAllocs pins the candump decoder at zero
// allocations per record once it has interned the stream's channel
// names, and at zero for a Reset onto another stream; the CSV decoder
// costs one per record (the CSV reader's row string) and a bounded
// handful per stream (a fresh csv.Reader numbering its lines).
func TestTextDecoderSteadyStateAllocs(t *testing.T) {
	tr := servedTrace(4000)
	for _, c := range []struct {
		format    Format
		perRecord float64
		perStream float64
	}{{FormatCandump, 0, 0}, {FormatCSV, 1, 16}} {
		var buf bytes.Buffer
		if err := Write(&buf, c.format, tr); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		dec, _ := NewDecoder(c.format, bytes.NewReader(raw))
		d := dec.(interface {
			Decoder
			Reset(io.Reader)
		})
		for i := 0; i < 100; i++ {
			if _, err := d.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := d.Next(); err != nil {
				t.Fatal(err)
			}
		}); n > c.perRecord {
			t.Errorf("%v: Next costs %v allocs/record, want at most %v", c.format, n, c.perRecord)
		}
		var rd bytes.Reader
		if n := testing.AllocsPerRun(5, func() {
			rd.Reset(raw)
			d.Reset(&rd)
			for {
				if _, err := d.Next(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}); n > c.perStream+c.perRecord*float64(len(tr)+1) {
			t.Errorf("%v: Reset and a %d-record stream cost %v allocs", c.format, len(tr), n)
		}
	}
}

// TestCandumpLineLimit: a line past the 1 MiB limit fails with
// bufio.ErrTooLong after the records before it, as it always has; one
// just under the limit decodes.
func TestCandumpLineLimit(t *testing.T) {
	for _, c := range []struct {
		channel int
		records int
		tooLong bool
	}{{candumpMaxLine - 20, 2, false}, {candumpMaxLine, 1, true}} {
		in := "(1.0) c 1#00\n(2.0) " + strings.Repeat("c", c.channel) + " 123#00\n"
		got, err := decodeAll(NewCandumpDecoder(strings.NewReader(in)))
		if len(got) != c.records || errors.Is(err, bufio.ErrTooLong) != c.tooLong || (err == nil) == c.tooLong {
			t.Errorf("%d-byte channel: %d records, %v; want %d, too long %v", c.channel, len(got), err, c.records, c.tooLong)
		}
		checkSameText(t, NewCandumpDecoder(strings.NewReader(in)), newRefCandumpDecoder(strings.NewReader(in)))
	}
}

// BenchmarkDecode reports each format's warm decode cost per record
// over a reused decoder: Next one record at a time, and Decode into a
// reused 64-record slab.
func BenchmarkDecode(b *testing.B) {
	tr := servedTrace(4000)
	for _, f := range []Format{FormatCandump, FormatCSV, FormatBinary} {
		var buf bytes.Buffer
		if err := Write(&buf, f, tr); err != nil {
			b.Fatal(err)
		}
		var rd bytes.Reader
		rd.Reset(buf.Bytes())
		dec, _ := NewDecoder(f, &rd)
		d := dec.(interface {
			batchDecoder
			Reset(io.Reader)
		})
		rewind := func() {
			rd.Reset(buf.Bytes())
			d.Reset(&rd)
		}
		b.Run(f.String()+"/next", func(b *testing.B) {
			rewind()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Next(); err == io.EOF {
					rewind()
				} else if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(f.String()+"/decode", func(b *testing.B) {
			rewind()
			slab := make([]Record, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			// One op is one record: each call fills up to a slab.
			for i := 0; i < b.N; i += len(slab) {
				var err error
				if slab, err = d.Decode(slab[:0]); err == io.EOF {
					rewind()
				} else if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
