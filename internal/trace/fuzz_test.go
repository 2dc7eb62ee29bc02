package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"canids/internal/can"
)

// FuzzReadCandump holds CandumpDecoder to the reference decoder — the
// same records, an error on the same line with the same sentinels,
// drained through Next and through Decode, also after a Reset — and
// checks that accepted logs round-trip.
func FuzzReadCandump(f *testing.F) {
	f.Add("(1.000000) can0 123#DEADBEEF\n")
	f.Add("# comment\n\n(2.5) x 1#R\n")
	f.Add("(999999999.999999) vcan0 7FF#0102030405060708\n")
	for _, seed := range []string{
		// Unicode separators: U+00A0 and U+0085 split fields, a raw
		// 0x85 or 0xA0 byte (invalid UTF-8) does not.
		"(1.000001)\u00a0can0\u0085123#00\n",
		"\u2028(1.000001) can0 123#00\u3000\n",
		"(1.000001)\xa0can0 123#00\n",
		"(1.000001) ca\xc2n0 123#00\n",
		"(1.000001) ca\u00a0n0 123#00\n(1.000002) can0\u0085 123#00\n",
		// Signs, leading zeros, CRLF and tabs.
		"(+1.+000002) can0 123#00\r\n(-0.-0) can0 0001#R\r\n",
		"(-1.000000) can0 123#00\n",
		"\t(0001.0000001)\tcan0\t00000007FF#\n",
		"((1.5))) can0 7FF#AB\n)1.5( can0 1#\n",
		"(1.5.5) can0 1#00\n(1) can0 1#00\n",
		"(9223372036.000000) c 1#00\n(9223372035.999999) c 1#00\n",
		// Identifier widths: 3 and 4 digits, 9 digits, past 29 and 32 bits.
		"(1.0) c 800#00\n(1.0) c 0800#00\n(1.0) c 000000001#00\n",
		"(1.0) c 1FFFFFFF#00\n(1.0) c 20000000#00\n(1.0) c 100000000#00\n",
		// Remote frames and data lengths.
		"(1.0) c 123#R\n(1.0) c 123#r5\n(1.0) c 123#R8\n(1.0) c 123#R9\n",
		"(1.0) c 123#R+1\n(1.0) c 123#R300\n(1.0) c 123#Rx\n",
		"(1.0) c 123#ABC\n(1.0) c 123#000102030405060708\n(1.0) c 123#0G\n",
		"(1.0) c #00\n(1.0) c 1G#00\n(1.0) c 123\n(1.0) c 123#00 extra\n",
		// A line longer than the initial buffer.
		"(1.0) " + strings.Repeat("c", 70_000) + " 123#00\n(2.0) c 1#\n",
		// Lines across the 4 KiB read buffer's edge, and a malformed
		// line in the middle of a 64-record slab.
		textLines(200, -1, "(1.%06d) can0 123#DEADBEEF\n", ""),
		textLines(100, 69, "(1.%06d) can0 7FF#\n", "(1.0) can0 123#0G\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		// parseFrame accepts exactly what can.ParseFrame accepts.
		for _, tok := range strings.Fields(input) {
			want, err := can.ParseFrame(tok)
			got, ok := parseFrame([]byte(tok))
			if ok != (err == nil) || ok && got != want {
				t.Fatalf("parseFrame(%q) = %+v, %v; can.ParseFrame = %+v, %v", tok, got, ok, want, err)
			}
		}
		d := NewCandumpDecoder(strings.NewReader(input))
		checkSameText(t, d, newRefCandumpDecoder(strings.NewReader(input)))
		d.Reset(strings.NewReader(input))
		checkSameText(t, newBatches(t, d, slabFor(len(input))), newRefCandumpDecoder(strings.NewReader(input)))
		d.Reset(strings.NewReader(input))
		tr, err := checkSameText(t, d, newRefCandumpDecoder(strings.NewReader(input)))
		if err != nil {
			return
		}
		// Accepted logs must survive a write/read cycle unchanged.
		var buf bytes.Buffer
		if err := WriteCandump(&buf, tr); err != nil {
			t.Fatalf("WriteCandump of accepted trace: %v", err)
		}
		back, err := ReadCandump(&buf)
		if err != nil {
			t.Fatalf("re-read of written trace: %v", err)
		}
		if len(back) != len(tr) {
			t.Fatalf("round trip length %d != %d", len(back), len(tr))
		}
		for i := range tr {
			if !back[i].Frame.Equal(tr[i].Frame) || back[i].Time != tr[i].Time {
				t.Fatalf("record %d mismatch", i)
			}
		}
	})
}

// FuzzReadCSV holds CSVDecoder to the reference decoder — the same
// records, an error on the same row with the same sentinels, drained
// through Next and through Decode, also after a Reset — and checks that
// accepted records are valid, capturable and round-trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("time_us,channel,id,dlc,data,source,injected\n1000,ms,123,2,DEAD,ecu1,0\n")
	f.Add("time_us,channel,id,dlc,data,source,injected\n")
	f.Add("time_us,channel,id,dlc,data,source,injected\n1000,ms,FFFFFFFF,0,,ecu1,0\n")
	const head = "time_us,channel,id,dlc,data,source,injected\r\n"
	for _, seed := range []string{
		head + "+1000,ms,0123,+2,dead,ecu1,1\r\n-0,ms,7FF,-0,,e,0\r\n",
		head + "-1,ms,123,0,,e,0\n",
		head + "0001,ms,000000001,0008,0102030405060708,e,0\n",
		head + "1,ms,1FFFFFFF,0,,e,0\n1,ms,20000000,0,,e,0\n1,ms,100000000,0,,e,0\n",
		head + "1,ms,123,5,R,e,0\n1,ms,123,9,R,e,0\n1,ms,123,1,r,e,0\n",
		head + "1,ms,123,1,0G,e,0\n1,ms,123,1,ABC,e,0\n1,ms,,0,,e,0\n1,ms,123,x,,e,0\n",
		head + "1,\"m s\u00a0\",123,0,,\"e,1\",1\n1,ms,123,0,,e\n",
		head + "9223372036854775,ms,1,0,,e,0\n9223372036854776,ms,1,0,,e,0\n",
		"1,a,1,0,,s,0\n2,a\x00b,1,0,,s,0\n",
		head + "1," + strings.Repeat("c", 70_000) + ",1,0,,s,0\n",
		// Rows across the 4 KiB read buffer's edge, and a malformed row
		// in the middle of a 64-record slab.
		head + textLines(200, -1, "%d,ms,123,2,DEAD,ecu1,0\n", ""),
		head + textLines(100, 69, "%d,ms,7FF,0,,ecu1,0\n", "1,ms,123,1,0G,e,0\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		d := NewCSVDecoder(strings.NewReader(input))
		checkSameText(t, d, newRefCSVDecoder(strings.NewReader(input)))
		d.Reset(strings.NewReader(input))
		checkSameText(t, newBatches(t, d, slabFor(len(input))), newRefCSVDecoder(strings.NewReader(input)))
		d.Reset(strings.NewReader(input))
		tr, err := checkSameText(t, d, newRefCSVDecoder(strings.NewReader(input)))
		if err != nil {
			return
		}
		// Every accepted record must be valid and capturable: a CSV
		// ingest feeds the same binary capture the other formats do.
		for i := range tr {
			if err := tr[i].Frame.Validate(); err != nil {
				t.Fatalf("accepted record %d is invalid: %v", i, err)
			}
		}
		if _, err := AppendBinary(nil, tr); err != nil {
			t.Fatalf("AppendBinary of accepted trace: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr); err != nil {
			t.Fatalf("WriteCSV of accepted trace: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-read of written trace: %v", err)
		}
		if len(back) != len(tr) {
			t.Fatalf("round trip length %d != %d", len(back), len(tr))
		}
	})
}

// textLines returns n lines made by formatting the line number into
// format, with the line at index bad (if any) replaced by badLine.
func textLines(n, bad int, format, badLine string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i == bad {
			b.WriteString(badLine)
			continue
		}
		fmt.Fprintf(&b, format, i)
	}
	return b.String()
}

// textSentinels are the errors a text decoder's failure is told apart
// by under errors.Is.
var textSentinels = []error{
	ErrSyntax, can.ErrIDRange, can.ErrDataLen, bufio.ErrTooLong,
	strconv.ErrSyntax, strconv.ErrRange, csv.ErrFieldCount, csv.ErrQuote, csv.ErrBareQuote,
}

// errPlace finds the line or row an error names.
var errPlace = regexp.MustCompile(`(line|row) \d+`)

// checkSameText fails t unless got and the reference decoder want yield
// the same records and fail, if at all, at the same line or row with
// the same sentinels. It returns got's records and error.
func checkSameText(t *testing.T, got, want Decoder) (Trace, error) {
	t.Helper()
	wantTr, wantErr := decodeAll(want)
	gotTr, gotErr := decodeAll(got)
	if (gotErr == nil) != (wantErr == nil) || len(gotTr) != len(wantTr) {
		t.Fatalf("decoded %d records (err %v), reference %d (err %v)", len(gotTr), gotErr, len(wantTr), wantErr)
	}
	for i := range wantTr {
		if gotTr[i] != wantTr[i] {
			t.Fatalf("record %d: %+v, reference %+v", i, gotTr[i], wantTr[i])
		}
	}
	if gotErr == nil {
		return gotTr, nil
	}
	for _, s := range textSentinels {
		if errors.Is(gotErr, s) != errors.Is(wantErr, s) {
			t.Fatalf("error %q, reference %q: differ on %v", gotErr, wantErr, s)
		}
	}
	if g, w := errPlace.FindString(gotErr.Error()), errPlace.FindString(wantErr.Error()); g != w {
		t.Fatalf("error %q at %q, reference %q at %q", gotErr, g, wantErr, w)
	}
	return gotTr, gotErr
}

// FuzzReadBinary holds BinaryDecoder to the reference decoder on
// arbitrary bytes, drained through Next and through Decode: the same
// records, and an error at the same record.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Trace{{Frame: can.MustFrame(0x123, []byte{1, 2})}}); err == nil {
		f.Add(buf.Bytes())
	}
	f.Add([]byte("CTR1"))
	f.Add([]byte{})
	frame, _ := can.MustFrame(0x7FF, []byte{9, 8, 7}).MarshalBinary()
	bad := []byte{1, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0} // DLC 9
	longMeta := append([]byte("ms-can\x00"), bytes.Repeat([]byte("s"), 5000)...)
	for _, seed := range [][]byte{
		// Trailing frame bytes are read and ignored.
		binaryStream(1, rawRecord(7, len(frame)+6, append(frame, 1, 2, 3, 4, 5, 6), 3, []byte("a\x00b"), 1)),
		binaryStream(1, rawRecord(7, 300, append(frame, make([]byte, 300-len(frame))...), 0, nil, 0)),
		// Meta without a separator, with two, and longer than the read
		// buffer.
		binaryStream(2, rawRecord(1, len(frame), frame, 2, []byte("hs"), 0), rawRecord(2, len(frame), frame, 5, []byte("a\x00b\x00c"), 2)),
		binaryStream(1, rawRecord(3, len(frame), frame, len(longMeta), longMeta, 0)),
		// An invalid frame, a short frame, truncation inside the frame
		// and inside the meta, fewer records than counted, bytes after
		// the last counted record.
		binaryStream(1, rawRecord(4, len(bad), bad, 1, []byte("x"), 0)),
		binaryStream(1, rawRecord(4, 3, frame[:3], 0, nil, 0)),
		binaryStream(1, rawRecord(5, len(frame), frame[:4], 0, nil, 0)),
		binaryStream(1, rawRecord(5, len(frame), frame, 9, []byte("ms"), 0)),
		binaryStream(3, rawRecord(6, len(frame), frame, 1, []byte("c"), 0)),
		binaryStream(1, rawRecord(6, len(frame), frame, 1, []byte("c"), 0), []byte("trailing")),
		// Records across the 4 KiB read buffer's edge: 38-byte records
		// put the edge inside record 107's frame; growing meta moves it
		// through headers and metas.
		binaryStream(200, binaryRecords(200, func(i int) []byte {
			return rawRecord(int64(i), len(frame), frame, 11, []byte("ms-can\x00ecu1"), 0)
		})...),
		binaryStream(200, binaryRecords(200, func(i int) []byte {
			meta := []byte("c\x00" + strings.Repeat("s", i%40))
			return rawRecord(int64(i), len(frame), frame, len(meta), meta, byte(i%2))
		})...),
		// An invalid frame, and a truncation, in the middle of a
		// 64-record slab.
		binaryStream(100, binaryRecords(100, func(i int) []byte {
			if i == 69 {
				return rawRecord(int64(i), len(bad), bad, 1, []byte("x"), 0)
			}
			return rawRecord(int64(i), len(frame), frame, 1, []byte("c"), 0)
		})...),
		binaryStream(100, binaryRecords(69, func(i int) []byte {
			return rawRecord(int64(i), len(frame), frame, 1, []byte("c"), 0)
		})...),
	} {
		f.Add(seed)
	}
	f.Fuzz(checkSameAsReference)
}

// binaryRecords returns n records made by record.
func binaryRecords(n int, record func(i int) []byte) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = record(i)
	}
	return out
}

// FuzzBinaryRoundTrip: every trace AppendBinary accepts decodes back to
// itself, WriteBinary writes the same bytes, and AppendBinary leaves
// the bytes already in dst alone. A trace it rejects, WriteBinary
// rejects too.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(int64(0), uint32(0x123), uint8(0), uint8(2), []byte{1, 2}, "ms-can", "ecu1", false)
	f.Add(int64(-5), uint32(0x1ABCDEF), uint8(1), uint8(8), []byte{1, 2, 3, 4, 5, 6, 7, 8}, "", "", true)
	f.Add(int64(9), uint32(0x7FF), uint8(2), uint8(3), []byte{}, "c", "s\x00t", false)
	f.Add(int64(1), uint32(0x800), uint8(0), uint8(0), []byte{}, "bad-id", "", false)
	f.Add(int64(1), uint32(1), uint8(0), uint8(9), []byte{}, "bad-dlc", "", false)
	f.Add(int64(1), uint32(1), uint8(0), uint8(0), []byte{}, "nul\x00channel", "", false)
	f.Fuzz(func(t *testing.T, ts int64, id uint32, flags, dlc uint8, data []byte, channel, source string, inj bool) {
		fr := can.Frame{ID: can.ID(id), Extended: flags&1 != 0, Remote: flags&2 != 0, Len: dlc}
		copy(fr.Data[:min(int(dlc), can.MaxDataLen)], data)
		tr := Trace{
			{Time: time.Duration(ts), Frame: fr, Channel: channel, Source: source, Injected: inj},
			{Time: time.Duration(ts) + 1, Frame: fr, Channel: channel},
			{Time: time.Duration(ts) + 2, Channel: source},
		}
		prefix := []byte("prefix")
		out, err := AppendBinary(prefix, tr)
		var w bytes.Buffer
		werr := WriteBinary(&w, tr)
		if err != nil {
			if werr == nil {
				t.Fatalf("AppendBinary rejected the trace (%v), WriteBinary accepted it", err)
			}
			if len(out) != len(prefix) {
				t.Fatalf("rejected trace grew dst to %d bytes", len(out))
			}
			return
		}
		if werr != nil {
			t.Fatalf("WriteBinary: %v", werr)
		}
		if !bytes.HasPrefix(out, prefix) || !bytes.Equal(out[len(prefix):], w.Bytes()) {
			t.Fatal("AppendBinary and WriteBinary bytes differ")
		}
		back, err := ReadBinary(bytes.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("decode of an accepted trace: %v", err)
		}
		if len(back) != len(tr) {
			t.Fatalf("decoded %d records, encoded %d", len(back), len(tr))
		}
		for i := range tr {
			if back[i] != tr[i] {
				t.Fatalf("record %d: %+v, encoded %+v", i, back[i], tr[i])
			}
		}
		checkSameAsReference(t, w.Bytes())
	})
}
