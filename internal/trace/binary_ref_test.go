package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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

// checkSameAsReference fails t unless BinaryDecoder and the reference
// decoder yield the same records from data and fail, if at all, at the
// same record.
func checkSameAsReference(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := decodeAll(newRefBinaryDecoder(bytes.NewReader(data)))
	got, gotErr := decodeAll(NewBinaryDecoder(bytes.NewReader(data)))
	if (gotErr == nil) != (wantErr == nil) || len(got) != len(want) {
		t.Fatalf("decoded %d records (err %v), reference %d (err %v)", len(got), gotErr, len(want), wantErr)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v, reference %+v", i, got[i], want[i])
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
