package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"canids/internal/can"
)

func FuzzReadCandump(f *testing.F) {
	f.Add("(1.000000) can0 123#DEADBEEF\n")
	f.Add("# comment\n\n(2.5) x 1#R\n")
	f.Add("(999999999.999999) vcan0 7FF#0102030405060708\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadCandump(strings.NewReader(input))
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

func FuzzReadCSV(f *testing.F) {
	f.Add("time_us,channel,id,dlc,data,source,injected\n1000,ms,123,2,DEAD,ecu1,0\n")
	f.Add("time_us,channel,id,dlc,data,source,injected\n")
	f.Add("time_us,channel,id,dlc,data,source,injected\n1000,ms,FFFFFFFF,0,,ecu1,0\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadCSV(strings.NewReader(input))
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

// FuzzReadBinary holds BinaryDecoder to the reference decoder on
// arbitrary bytes: the same records, and an error at the same record.
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
	} {
		f.Add(seed)
	}
	f.Fuzz(checkSameAsReference)
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
