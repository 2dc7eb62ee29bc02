package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"canids/internal/can"
)

// Timestamp bounds accepted by the text decoders: the value must survive
// conversion to nanoseconds in an int64 (time.Duration).
const (
	maxLogSeconds = int64(math.MaxInt64)/int64(time.Second) - 1
	maxLogMicros  = int64(math.MaxInt64) / int64(time.Microsecond)
)

// Decoder yields the records of a log stream one at a time, in the order
// they were written. Next returns io.EOF after the last record. The
// streaming engine consumes logs through this interface, so a capture
// never has to fit in memory at once; the batch readers (ReadCandump,
// ReadCSV, ReadBinary) are ReadAll over the same decoders.
type Decoder interface {
	Next() (Record, error)
}

// Format identifies a trace log format.
type Format int

const (
	// FormatCandump is the candump -l text format (no ground truth).
	FormatCandump Format = iota + 1
	// FormatCSV is the Vehicle-Spy-like table with source + injected.
	FormatCSV
	// FormatBinary is the compact length-prefixed binary stream.
	FormatBinary
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatCandump:
		return "candump"
	case FormatCSV:
		return "csv"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// FormatForPath picks the log format for a file path by extension:
// .csv and .bin map to their formats, anything else is candump text.
func FormatForPath(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return FormatCSV
	case ".bin":
		return FormatBinary
	default:
		return FormatCandump
	}
}

// NewDecoder returns a streaming decoder for the given format.
func NewDecoder(f Format, r io.Reader) (Decoder, error) {
	switch f {
	case FormatCandump:
		return NewCandumpDecoder(r), nil
	case FormatCSV:
		return NewCSVDecoder(r), nil
	case FormatBinary:
		return NewBinaryDecoder(r), nil
	default:
		return nil, fmt.Errorf("trace: unknown format %d", int(f))
	}
}

// Write writes the trace in the given format.
func Write(w io.Writer, f Format, t Trace) error {
	switch f {
	case FormatCandump:
		return WriteCandump(w, t)
	case FormatCSV:
		return WriteCSV(w, t)
	case FormatBinary:
		return WriteBinary(w, t)
	default:
		return fmt.Errorf("trace: unknown format %d", int(f))
	}
}

// ReadAll drains a decoder into a Trace.
func ReadAll(d Decoder) (Trace, error) {
	var out Trace
	for {
		rec, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// CandumpDecoder streams a candump -l text log.
type CandumpDecoder struct {
	sc   *bufio.Scanner
	line int
}

// NewCandumpDecoder creates a streaming candump reader.
func NewCandumpDecoder(r io.Reader) *CandumpDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &CandumpDecoder{sc: sc}
}

// Next implements Decoder.
func (d *CandumpDecoder) Next() (Record, error) {
	for d.sc.Scan() {
		d.line++
		text := strings.TrimSpace(d.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return Record{}, fmt.Errorf("%w: line %d: %q", ErrSyntax, d.line, text)
		}
		ts := strings.Trim(fields[0], "()")
		secStr, usecStr, ok := strings.Cut(ts, ".")
		if !ok {
			return Record{}, fmt.Errorf("%w: line %d: timestamp %q", ErrSyntax, d.line, ts)
		}
		sec, err := strconv.ParseInt(secStr, 10, 64)
		if err != nil {
			return Record{}, fmt.Errorf("%w: line %d: %v", ErrSyntax, d.line, err)
		}
		usec, err := strconv.ParseInt(usecStr, 10, 64)
		if err != nil {
			return Record{}, fmt.Errorf("%w: line %d: %v", ErrSyntax, d.line, err)
		}
		// Negative or overflowing timestamps cannot round-trip through
		// time.Duration arithmetic; reject rather than wrap.
		if sec < 0 || sec > maxLogSeconds || usec < 0 || usec > 999_999 {
			return Record{}, fmt.Errorf("%w: line %d: timestamp %q out of range", ErrSyntax, d.line, ts)
		}
		frame, err := can.ParseFrame(fields[2])
		if err != nil {
			return Record{}, fmt.Errorf("trace: line %d: %w", d.line, err)
		}
		return Record{
			Time:    time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond,
			Channel: fields[1],
			Frame:   frame,
		}, nil
	}
	if err := d.sc.Err(); err != nil {
		return Record{}, fmt.Errorf("trace: read candump: %w", err)
	}
	return Record{}, io.EOF
}

// CSVDecoder streams a trace written by WriteCSV.
type CSVDecoder struct {
	cr  *csv.Reader
	row int
}

// NewCSVDecoder creates a streaming CSV reader.
func NewCSVDecoder(r io.Reader) *CSVDecoder {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	return &CSVDecoder{cr: cr}
}

// Next implements Decoder.
func (d *CSVDecoder) Next() (Record, error) {
	for {
		row, err := d.cr.Read()
		if err == io.EOF {
			return Record{}, io.EOF
		}
		if err != nil {
			return Record{}, fmt.Errorf("trace: read csv: %w", err)
		}
		d.row++
		if d.row == 1 && row[0] == csvHeader[0] {
			continue // header
		}
		return parseCSVRow(row, d.row)
	}
}

// parseCSVRow decodes one data row; rowNum is 1-based for error messages.
func parseCSVRow(row []string, rowNum int) (Record, error) {
	us, err := strconv.ParseInt(row[0], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("%w: row %d: %v", ErrSyntax, rowNum, err)
	}
	if us < 0 || us > maxLogMicros {
		return Record{}, fmt.Errorf("%w: row %d: time_us %d out of range", ErrSyntax, rowNum, us)
	}
	idVal, err := strconv.ParseUint(row[2], 16, 32)
	if err != nil {
		return Record{}, fmt.Errorf("%w: row %d: %v", ErrSyntax, rowNum, err)
	}
	dlc, err := strconv.Atoi(row[3])
	if err != nil || dlc < 0 || dlc > can.MaxDataLen {
		return Record{}, fmt.Errorf("%w: row %d: bad dlc %q", ErrSyntax, rowNum, row[3])
	}
	var frame can.Frame
	frame.ID = can.ID(idVal)
	// As in candump text, more than three identifier digits means an
	// extended frame even when the value fits 11 bits.
	frame.Extended = len(row[2]) > 3 || frame.ID > can.MaxStandardID
	frame.Len = uint8(dlc)
	dataHex := row[4]
	if dataHex == "R" {
		frame.Remote = true
	} else {
		if len(dataHex) != dlc*2 {
			return Record{}, fmt.Errorf("%w: row %d: data length %d != dlc %d", ErrSyntax, rowNum, len(dataHex)/2, dlc)
		}
		for j := 0; j < dlc; j++ {
			b, err := strconv.ParseUint(dataHex[2*j:2*j+2], 16, 8)
			if err != nil {
				return Record{}, fmt.Errorf("%w: row %d: %v", ErrSyntax, rowNum, err)
			}
			frame.Data[j] = byte(b)
		}
	}
	return Record{
		Time:     time.Duration(us) * time.Microsecond,
		Channel:  row[1],
		Frame:    frame,
		Source:   row[5],
		Injected: row[6] == "1",
	}, nil
}

// BinaryDecoder streams a trace written by WriteBinary. A warm decoder
// allocates nothing per record: the fixed record header and the frame
// bytes are read into arrays of the decoder, the meta bytes are parsed
// in place in the read buffer, and Channel/Source strings are interned.
// Only a meta field longer than the read buffer takes a path that
// allocates.
type BinaryDecoder struct {
	br      *bufio.Reader
	started bool
	count   uint64
	read    uint64
	head    [recordHeadLen]byte
	frame   [can.MaxWireSize]byte
	names   map[string]string
}

// Bounds of the per-decoder intern table, so a stream of ever-new names
// cannot grow it without limit: past them, names still decode but cost
// an allocation each.
const (
	maxInterned  = 256
	maxInternLen = 64
)

// NewBinaryDecoder creates a streaming binary reader.
func NewBinaryDecoder(r io.Reader) *BinaryDecoder {
	return &BinaryDecoder{br: bufio.NewReader(r)}
}

// Next implements Decoder.
func (d *BinaryDecoder) Next() (Record, error) {
	if !d.started {
		d.started = true
		magic := d.head[:len(binaryMagic)]
		if _, err := io.ReadFull(d.br, magic); err != nil {
			return Record{}, fmt.Errorf("trace: read binary: %w", err)
		}
		if [len(binaryMagic)]byte(magic) != binaryMagic {
			return Record{}, fmt.Errorf("trace: read binary: bad magic %q", magic)
		}
		if _, err := io.ReadFull(d.br, d.head[:8]); err != nil {
			return Record{}, fmt.Errorf("trace: read binary: %w", err)
		}
		d.count = binary.LittleEndian.Uint64(d.head[:8])
	}
	if d.read >= d.count {
		return Record{}, io.EOF
	}
	rec, err := d.record()
	if err != nil {
		return Record{}, fmt.Errorf("trace: read binary record %d: %w", d.read, noEOF(err))
	}
	d.read++
	return rec, nil
}

// record decodes the record at the read position.
func (d *BinaryDecoder) record() (Record, error) {
	if _, err := io.ReadFull(d.br, d.head[:]); err != nil {
		return Record{}, err
	}
	frameLen := int(binary.LittleEndian.Uint16(d.head[8:10]))
	metaLen := int(binary.LittleEndian.Uint16(d.head[10:12]))
	// Bytes past the largest frame encoding are skipped, as
	// UnmarshalBinary ignores trailing bytes.
	n := min(frameLen, len(d.frame))
	if _, err := io.ReadFull(d.br, d.frame[:n]); err != nil {
		return Record{}, err
	}
	if _, err := d.br.Discard(frameLen - n); err != nil {
		return Record{}, err
	}
	rec := Record{Time: time.Duration(binary.LittleEndian.Uint64(d.head[:8])), Injected: d.head[12] == 1}
	if err := rec.Frame.UnmarshalBinary(d.frame[:n]); err != nil {
		return Record{}, err
	}
	meta, err := d.br.Peek(metaLen)
	peeked := err == nil
	if err == bufio.ErrBufferFull {
		// Longer than the read buffer: the one path that allocates.
		meta = make([]byte, metaLen)
		_, err = io.ReadFull(d.br, meta)
	}
	if err != nil {
		return Record{}, err
	}
	channel, source, _ := bytes.Cut(meta, []byte{0})
	rec.Channel, rec.Source = d.intern(channel), d.intern(source)
	if peeked {
		d.br.Discard(metaLen) //nolint:errcheck // the bytes were just peeked
	}
	return rec, nil
}

// intern returns b as a string, shared with every earlier record that
// carried the same bytes while the table has room.
func (d *BinaryDecoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxInternLen && len(d.names) < maxInterned {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		d.names[s] = s
	}
	return s
}

// noEOF reports a stream that ends before its record count as
// truncated.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
