package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"
	"time"
)

// refBinaryDecoder is the original binary decoder — three binary.Reads,
// two makes and a string conversion per record — kept as the reference
// that FuzzReadBinary holds BinaryDecoder to.
type refBinaryDecoder struct {
	br      *bufio.Reader
	started bool
	count   uint64
	read    uint64
}

// newRefBinaryDecoder creates a reference decoder over r.
func newRefBinaryDecoder(r io.Reader) *refBinaryDecoder {
	return &refBinaryDecoder{br: bufio.NewReader(r)}
}

// Next implements Decoder.
func (d *refBinaryDecoder) Next() (Record, error) {
	if !d.started {
		d.started = true
		var magic [4]byte
		if _, err := io.ReadFull(d.br, magic[:]); err != nil {
			return Record{}, fmt.Errorf("trace: read binary: %w", err)
		}
		if magic != binaryMagic {
			return Record{}, fmt.Errorf("trace: read binary: bad magic %q", magic[:])
		}
		if err := binary.Read(d.br, binary.LittleEndian, &d.count); err != nil {
			return Record{}, fmt.Errorf("trace: read binary: %w", err)
		}
	}
	if d.read >= d.count {
		return Record{}, io.EOF
	}
	i := d.read
	var ts int64
	if err := binary.Read(d.br, binary.LittleEndian, &ts); err != nil {
		return Record{}, fmt.Errorf("trace: read binary record %d: %w", i, err)
	}
	var frameLen, metaLen uint16
	if err := binary.Read(d.br, binary.LittleEndian, &frameLen); err != nil {
		return Record{}, fmt.Errorf("trace: read binary record %d: %w", i, err)
	}
	if err := binary.Read(d.br, binary.LittleEndian, &metaLen); err != nil {
		return Record{}, fmt.Errorf("trace: read binary record %d: %w", i, err)
	}
	inj, err := d.br.ReadByte()
	if err != nil {
		return Record{}, fmt.Errorf("trace: read binary record %d: %w", i, err)
	}
	frameBytes := make([]byte, frameLen)
	if _, err := io.ReadFull(d.br, frameBytes); err != nil {
		return Record{}, fmt.Errorf("trace: read binary record %d: %w", i, err)
	}
	meta := make([]byte, metaLen)
	if _, err := io.ReadFull(d.br, meta); err != nil {
		return Record{}, fmt.Errorf("trace: read binary record %d: %w", i, err)
	}
	var rec Record
	rec.Time = time.Duration(ts)
	if err := rec.Frame.UnmarshalBinary(frameBytes); err != nil {
		return Record{}, fmt.Errorf("trace: read binary record %d: %w", i, err)
	}
	channel, source, _ := strings.Cut(string(meta), "\x00")
	rec.Channel = channel
	rec.Source = source
	rec.Injected = inj == 1
	d.read++
	return rec, nil
}

// decodeAll drains d, returning the records decoded before the first
// error and that error (nil at a clean io.EOF).
func decodeAll(d Decoder) (Trace, error) {
	var out Trace
	for {
		rec, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// batchDecoder is a decoder with the batch method every format's
// decoder has.
type batchDecoder interface {
	Decoder
	Decode(dst []Record) ([]Record, error)
}

// batches hands out one by one the records d.Decode puts into a reused
// slab of capacity n, so decodeAll and the reference checks can drain
// the batch path as they drain Next. It fails t when Decode returns a
// slab that is not full without an error.
type batches struct {
	t   *testing.T
	d   batchDecoder
	buf []Record
	i   int
	err error
}

// newBatches drains d in slabs of n records.
func newBatches(t *testing.T, d batchDecoder, n int) *batches {
	return &batches{t: t, d: d, buf: make([]Record, 0, n)}
}

// Next implements Decoder.
func (b *batches) Next() (Record, error) {
	for b.i == len(b.buf) {
		if b.err != nil {
			return Record{}, b.err
		}
		b.buf, b.err = b.d.Decode(b.buf[:0])
		b.i = 0
		if b.err == nil && len(b.buf) != cap(b.buf) {
			b.t.Fatalf("Decode returned %d of %d records and no error", len(b.buf), cap(b.buf))
		}
	}
	b.i++
	return b.buf[b.i-1], nil
}

// slabFor picks the Decode slab capacity a fuzz input is drained at:
// 1, 3 or 64 records.
func slabFor(n int) int { return [...]int{1, 3, 64}[n%3] }

// errRecord finds the record index a binary decode error names.
var errRecord = regexp.MustCompile(`record \d+`)

// checkSameAsReference fails t unless BinaryDecoder, drained through
// Next and through Decode, yields the reference decoder's records from
// data and fails, if at all, at the same record.
func checkSameAsReference(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := decodeAll(newRefBinaryDecoder(bytes.NewReader(data)))
	for _, d := range []Decoder{
		NewBinaryDecoder(bytes.NewReader(data)),
		newBatches(t, NewBinaryDecoder(bytes.NewReader(data)), slabFor(len(data))),
	} {
		got, gotErr := decodeAll(d)
		if (gotErr == nil) != (wantErr == nil) || len(got) != len(want) {
			t.Fatalf("%T: decoded %d records (err %v), reference %d (err %v)", d, len(got), gotErr, len(want), wantErr)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%T: record %d: %+v, reference %+v", d, i, got[i], want[i])
			}
		}
		if gotErr == nil {
			continue
		}
		if g, w := errRecord.FindString(gotErr.Error()), errRecord.FindString(wantErr.Error()); g != w {
			t.Fatalf("%T: error %q at %q, reference %q at %q", d, gotErr, g, wantErr, w)
		}
	}
}

// binaryStream hand-assembles a CTR1 stream that claims count records,
// so tests can build what AppendBinary never writes.
func binaryStream(count uint64, records ...[]byte) []byte {
	out := binary.LittleEndian.AppendUint64(append([]byte(nil), binaryMagic[:]...), count)
	for _, r := range records {
		out = append(out, r...)
	}
	return out
}

// rawRecord assembles one record with explicit length fields.
func rawRecord(ts int64, frameLen int, frame []byte, metaLen int, meta []byte, inj byte) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(ts))
	out = binary.LittleEndian.AppendUint16(out, uint16(frameLen))
	out = binary.LittleEndian.AppendUint16(out, uint16(metaLen))
	out = append(out, inj)
	out = append(out, frame...)
	return append(out, meta...)
}
