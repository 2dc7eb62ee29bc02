package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"canids/internal/can"
)

func sampleTrace() Trace {
	return Trace{
		{Time: 0, Frame: can.MustFrame(0x100, []byte{1}), Channel: "ms-can", Source: "ecu1"},
		{Time: 10 * time.Millisecond, Frame: can.MustFrame(0x200, []byte{2, 3}), Channel: "ms-can", Source: "ecu2"},
		{Time: 20 * time.Millisecond, Frame: can.MustFrame(0x0A0, nil), Channel: "ms-can", Source: "mal", Injected: true},
		{Time: 1500 * time.Millisecond, Frame: can.MustFrame(0x100, []byte{4}), Channel: "ms-can", Source: "ecu1"},
	}
}

func TestTraceSortAndDuration(t *testing.T) {
	tr := sampleTrace()
	// Shuffle then sort.
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(tr), func(i, j int) { tr[i], tr[j] = tr[j], tr[i] })
	tr.Sort()
	for i := 1; i < len(tr); i++ {
		if tr[i-1].Time > tr[i].Time {
			t.Fatal("trace not sorted")
		}
	}
	if got, want := tr.Duration(), 1500*time.Millisecond; got != want {
		t.Errorf("Duration = %v, want %v", got, want)
	}
	if (Trace{}).Duration() != 0 {
		t.Error("empty trace duration should be 0")
	}
}

func TestTraceSlice(t *testing.T) {
	tr := sampleTrace()
	got := tr.Slice(5*time.Millisecond, 25*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("Slice returned %d records, want 2", len(got))
	}
	if got[0].Frame.ID != 0x200 || got[1].Frame.ID != 0x0A0 {
		t.Errorf("unexpected slice contents: %v", got)
	}
}

func TestTraceWindows(t *testing.T) {
	tr := sampleTrace()
	ws := tr.Windows(time.Second, true)
	if len(ws) != 2 {
		t.Fatalf("Windows = %d, want 2", len(ws))
	}
	if len(ws[0]) != 3 || len(ws[1]) != 1 {
		t.Errorf("window sizes = %d,%d want 3,1", len(ws[0]), len(ws[1]))
	}
	if got := tr.Windows(0, true); got != nil {
		t.Error("zero-length windows should return nil")
	}
}

func TestTraceFilterAndCounts(t *testing.T) {
	tr := sampleTrace()
	inj := tr.Filter(func(r Record) bool { return r.Injected })
	if len(inj) != 1 || tr.CountInjected() != 1 {
		t.Errorf("injected count mismatch: filter=%d count=%d", len(inj), tr.CountInjected())
	}
	ids := tr.IDs()
	if len(ids) != 3 || ids[0] != 0x0A0 || ids[2] != 0x200 {
		t.Errorf("IDs = %v", ids)
	}
	counts := tr.IDCounts()
	if counts[0x100] != 2 {
		t.Errorf("count[0x100] = %d, want 2", counts[0x100])
	}
}

func TestCandumpRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteCandump(&buf, tr); err != nil {
		t.Fatalf("WriteCandump: %v", err)
	}
	got, err := ReadCandump(&buf)
	if err != nil {
		t.Fatalf("ReadCandump: %v", err)
	}
	if len(got) != len(tr) {
		t.Fatalf("len = %d, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i].Time != tr[i].Time || !got[i].Frame.Equal(tr[i].Frame) || got[i].Channel != tr[i].Channel {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got[i], tr[i])
		}
		// candump drops provenance by design.
		if got[i].Source != "" || got[i].Injected {
			t.Errorf("record %d: candump should not carry ground truth", i)
		}
	}
}

func TestReadCandumpSkipsCommentsAndBlank(t *testing.T) {
	input := "# comment\n\n(1.000000) can0 123#AB\n"
	got, err := ReadCandump(strings.NewReader(input))
	if err != nil {
		t.Fatalf("ReadCandump: %v", err)
	}
	if len(got) != 1 || got[0].Frame.ID != 0x123 {
		t.Errorf("got %v", got)
	}
}

func TestReadCandumpErrors(t *testing.T) {
	bad := []string{
		"(1.0) can0",                  // missing frame
		"(x.000000) can0 123#AB",      // bad seconds
		"(1.00000x) can0 123#AB",      // bad microseconds
		"(1000000) can0 123#AB",       // no dot
		"(1.000000) can0 123#AB meta", // extra field
	}
	for _, s := range bad {
		if _, err := ReadCandump(strings.NewReader(s)); err == nil {
			t.Errorf("ReadCandump(%q) succeeded, want error", s)
		}
	}
	if _, err := ReadCandump(strings.NewReader("(1.0) can0 123#ZZ")); err == nil {
		t.Error("bad frame hex should fail")
	}
}

func TestCSVRoundTripPreservesGroundTruth(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(got) != len(tr) {
		t.Fatalf("len = %d, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Errorf("record %d: %+v vs %+v", i, got[i], tr[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	rows := []string{
		"time_us,channel,id,dlc,data,source,injected\nx,ms,100,0,,a,0",
		"time_us,channel,id,dlc,data,source,injected\n1,ms,ZZZ,0,,a,0",
		"time_us,channel,id,dlc,data,source,injected\n1,ms,100,9,,a,0",
		"time_us,channel,id,dlc,data,source,injected\n1,ms,100,2,AB,a,0",
		// Rows the binary capture could not carry: an identifier above
		// 29 bits, a channel containing NUL.
		"time_us,channel,id,dlc,data,source,injected\n1,ms,FFFFFFFF,0,,a,0",
		"time_us,channel,id,dlc,data,source,injected\n1,m\x00s,100,0,,a,0",
	}
	for _, s := range rows {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", s)
		}
	}
}

func TestReadCSVEmpty(t *testing.T) {
	got, err := ReadCSV(strings.NewReader(""))
	if err != nil || got != nil {
		t.Errorf("empty csv: got %v, %v", got, err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if len(got) != len(tr) {
		t.Fatalf("len = %d, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got[i], tr[i])
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	_, err := ReadBinary(bytes.NewReader([]byte("NOPE....")))
	if err == nil {
		t.Error("bad magic should fail")
	}
}

func TestBinaryTruncated(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{5, 13, len(raw) - 3} {
		if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

// TestAppendBinaryRejectsUnrepresentable: a Channel/Source pair past
// the uint16 meta length, or a Channel containing the NUL separator,
// is an error — never a wrapped length or a stream that reads back
// different records. The largest meta that fits round-trips.
func TestAppendBinaryRejectsUnrepresentable(t *testing.T) {
	fr := can.MustFrame(0x100, []byte{1})
	for name, rec := range map[string]Record{
		"channel":    {Frame: fr, Channel: strings.Repeat("c", math.MaxUint16)},
		"source":     {Frame: fr, Channel: "ms-can", Source: strings.Repeat("s", math.MaxUint16-6)},
		"nul":        {Frame: fr, Channel: "ms\x00can"},
		"both-large": {Frame: fr, Channel: strings.Repeat("c", 40000), Source: strings.Repeat("s", 40000)},
	} {
		tr := Trace{sampleTrace()[0], rec}
		dst := []byte("keep")
		out, err := AppendBinary(dst, tr)
		if !errors.Is(err, ErrBinaryMeta) {
			t.Errorf("%s: AppendBinary err = %v, want ErrBinaryMeta", name, err)
		}
		if string(out) != "keep" {
			t.Errorf("%s: rejected trace changed dst to %d bytes", name, len(out))
		}
		if err := WriteBinary(io.Discard, tr); !errors.Is(err, ErrBinaryMeta) {
			t.Errorf("%s: WriteBinary err = %v, want ErrBinaryMeta", name, err)
		}
	}
	widest := Trace{{Frame: fr, Channel: "ms-can", Source: strings.Repeat("s", math.MaxUint16-7)}, sampleTrace()[1]}
	raw, err := AppendBinary(nil, widest)
	if err != nil {
		t.Fatalf("largest meta rejected: %v", err)
	}
	got, err := ReadBinary(bytes.NewReader(raw))
	if err != nil || len(got) != len(widest) || got[0] != widest[0] || got[1] != widest[1] {
		t.Fatalf("largest meta did not round-trip (err %v)", err)
	}
}

// servedTrace is a mixed-bus trace shaped like a served upload: four
// buses, a handful of sources each.
func servedTrace(n int) Trace {
	rng := rand.New(rand.NewSource(3))
	buses := []string{"ms-can", "hs-can", "body", "chassis"}
	tr := make(Trace, n)
	for i := range tr {
		data := make([]byte, rng.Intn(can.MaxDataLen+1))
		rng.Read(data)
		tr[i] = Record{
			Time:     time.Duration(i) * 100 * time.Microsecond,
			Frame:    can.MustFrame(can.ID(rng.Intn(0x800)), data),
			Channel:  buses[i%len(buses)],
			Source:   "ecu" + strconv.Itoa(rng.Intn(6)),
			Injected: rng.Intn(50) == 0,
		}
	}
	return tr
}

// TestBinaryCodecSteadyStateAllocs pins both directions of the binary
// codec at zero allocations per record once warm: Next after the
// decoder has interned the stream's names, and AppendBinary into a
// buffer with room.
func TestBinaryCodecSteadyStateAllocs(t *testing.T) {
	tr := servedTrace(4000)
	raw, err := AppendBinary(nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	d := NewBinaryDecoder(bytes.NewReader(raw))
	for i := 0; i < 100; i++ {
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("BinaryDecoder.Next: %v allocs/record, want 0", n)
	}
	buf := make([]byte, 0, len(raw))
	if n := testing.AllocsPerRun(20, func() {
		if buf, err = AppendBinary(buf[:0], tr); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendBinary into a sized buffer: %v allocs, want 0", n)
	}
	if !bytes.Equal(buf, raw) {
		t.Error("AppendBinary into a reused buffer wrote different bytes")
	}
}

// TestBinaryDecoderInternBounded: a stream of ever-new names decodes
// correctly while the intern table stops growing at its bound.
func TestBinaryDecoderInternBounded(t *testing.T) {
	tr := make(Trace, 3*maxInterned)
	for i := range tr {
		tr[i] = Record{Frame: can.MustFrame(0x100, nil), Channel: "bus" + strconv.Itoa(i), Source: strings.Repeat("s", i%(2*maxInternLen))}
	}
	raw, err := AppendBinary(nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	d := NewBinaryDecoder(bytes.NewReader(raw))
	got, err := ReadAll(d)
	if err != nil || len(got) != len(tr) {
		t.Fatalf("decoded %d of %d records: %v", len(got), len(tr), err)
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], tr[i])
		}
	}
	if len(d.names) > maxInterned {
		t.Errorf("intern table holds %d names, bound %d", len(d.names), maxInterned)
	}
	for s := range d.names {
		if len(s) > maxInternLen {
			t.Errorf("intern table kept a %d-byte name, bound %d", len(s), maxInternLen)
		}
	}
}

func TestCandumpLargeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tr Trace
	for i := 0; i < 5000; i++ {
		n := rng.Intn(9)
		data := make([]byte, n)
		rng.Read(data)
		tr = append(tr, Record{
			Time:    time.Duration(i) * time.Millisecond,
			Frame:   can.MustFrame(can.ID(rng.Intn(0x800)), data),
			Channel: "can0",
		})
	}
	var buf bytes.Buffer
	if err := WriteCandump(&buf, tr); err != nil {
		t.Fatalf("WriteCandump: %v", err)
	}
	got, err := ReadCandump(&buf)
	if err != nil {
		t.Fatalf("ReadCandump: %v", err)
	}
	for i := range tr {
		if !got[i].Frame.Equal(tr[i].Frame) || got[i].Time != tr[i].Time {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

var errSentinel = errors.New("x")

// failWriter fails after n bytes to exercise writer error paths.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errSentinel
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriteErrorsPropagate(t *testing.T) {
	tr := sampleTrace()
	if err := WriteCandump(&failWriter{n: 10}, tr); err == nil {
		t.Error("WriteCandump should propagate write errors")
	}
	if err := WriteBinary(&failWriter{n: 10}, tr); err == nil {
		t.Error("WriteBinary should propagate write errors")
	}
	if err := WriteCSV(&failWriter{n: 4}, tr); err == nil {
		t.Error("WriteCSV should propagate write errors")
	}
}
