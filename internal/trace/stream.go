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
	"strings"
	"time"
	"unicode/utf8"

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

// CandumpDecoder streams a candump -l text log. A warm decoder
// allocates nothing per record: each line is parsed in the scanner's
// buffer and channel names are interned. Reset points it at another
// stream, keeping its buffer and names.
type CandumpDecoder struct {
	sc    bufio.Scanner
	line  int
	names interner
	buf   [candumpBuf]byte
}

// A candump line is read into a 4 KiB buffer that grows to at most
// 1 MiB; a longer line is an error.
const (
	candumpBuf     = 4 * 1024
	candumpMaxLine = 1024 * 1024
)

// NewCandumpDecoder creates a streaming candump reader.
func NewCandumpDecoder(r io.Reader) *CandumpDecoder {
	d := new(CandumpDecoder)
	d.Reset(r)
	return d
}

// Reset makes d read a new stream from r, numbering lines from 1.
func (d *CandumpDecoder) Reset(r io.Reader) {
	d.sc = *bufio.NewScanner(r)
	d.sc.Buffer(d.buf[:], candumpMaxLine)
	d.line = 0
}

// Next implements Decoder.
func (d *CandumpDecoder) Next() (Record, error) {
	for d.sc.Scan() {
		d.line++
		line := d.sc.Bytes()
		if rec, ok := d.plain(line); ok {
			return rec, nil
		}
		var f [3][]byte
		n := fields(line, f[:])
		if n == 0 || f[0][0] == '#' {
			continue // blank or comment
		}
		if n != len(f) {
			return Record{}, fmt.Errorf("%w: line %d: %q", ErrSyntax, d.line, bytes.TrimSpace(line))
		}
		t, ok := candumpTime(f[0])
		if !ok {
			return Record{}, fmt.Errorf("%w: line %d: timestamp %q", ErrSyntax, d.line, f[0])
		}
		frame, ok := parseFrame(f[2])
		if !ok {
			// can.ParseFrame rejects it too and says why.
			var err error
			if frame, err = can.ParseFrame(string(f[2])); err != nil {
				return Record{}, fmt.Errorf("trace: line %d: %w", d.line, err)
			}
		}
		return Record{Time: t, Channel: d.names.fromBytes(f[1]), Frame: frame}, nil
	}
	if err := d.sc.Err(); err != nil {
		return Record{}, fmt.Errorf("trace: read candump: %w", err)
	}
	return Record{}, io.EOF
}

// plain decodes a line in the form candump writes — "(sec.usec)
// channel frame", split by single spaces — in one pass, and reports
// false for any other line, which Next then splits at white space in
// general. What it accepts, the general path accepts with the same
// result.
func (d *CandumpDecoder) plain(line []byte) (Record, bool) {
	i := 0
	for i < len(line) && line[i] == '(' {
		i++
	}
	sec, i, ok := decAt(line, i, maxLogSeconds)
	if !ok || i == len(line) || line[i] != '.' {
		return Record{}, false
	}
	usec, i, ok := decAt(line, i+1, 999_999)
	if !ok {
		return Record{}, false
	}
	for i < len(line) && line[i] == ')' {
		i++
	}
	if i == len(line) || line[i] != ' ' {
		return Record{}, false
	}
	start := i + 1
	for i = start; i < len(line) && line[i] > ' ' && line[i] < utf8.RuneSelf; i++ {
	}
	if i == start || i == len(line) || line[i] != ' ' {
		return Record{}, false
	}
	frame, ok := parseFrame(line[i+1:])
	if !ok {
		return Record{}, false
	}
	t := time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond
	return Record{Time: t, Channel: d.names.fromBytes(line[start:i]), Frame: frame}, true
}

// CSVDecoder streams a trace written by WriteCSV. It reuses the CSV
// reader's row slice, parses fields in place and interns channel and
// source names; Reset points it at another stream, keeping its read
// buffer and names.
type CSVDecoder struct {
	br    *bufio.Reader
	cr    *csv.Reader // over br, made by the first Next of a stream
	row   int
	names interner
}

// NewCSVDecoder creates a streaming CSV reader.
func NewCSVDecoder(r io.Reader) *CSVDecoder {
	return &CSVDecoder{br: bufio.NewReader(r)}
}

// Reset makes d read a new stream from r, numbering rows from 1.
func (d *CSVDecoder) Reset(r io.Reader) {
	d.br.Reset(r)
	d.cr = nil
	d.row = 0
}

// Next implements Decoder.
func (d *CSVDecoder) Next() (Record, error) {
	if d.cr == nil {
		// csv.NewReader reads through d.br as is: it is a large enough
		// bufio.Reader. A fresh csv.Reader numbers lines from 1.
		d.cr = csv.NewReader(d.br)
		d.cr.FieldsPerRecord = len(csvHeader)
		d.cr.ReuseRecord = true
	}
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
		return d.record(row)
	}
}

// record decodes one data row.
func (d *CSVDecoder) record(row []string) (Record, error) {
	us, ok := parseDec(row[0], maxLogMicros)
	if !ok {
		return Record{}, fmt.Errorf("%w: row %d: time_us %q", ErrSyntax, d.row, row[0])
	}
	id, ok := parseHexID(row[2])
	if !ok {
		return Record{}, fmt.Errorf("%w: row %d: id %q", ErrSyntax, d.row, row[2])
	}
	dlc, ok := parseDec(row[3], can.MaxDataLen)
	if !ok {
		return Record{}, fmt.Errorf("%w: row %d: bad dlc %q", ErrSyntax, d.row, row[3])
	}
	// As in candump text, more than three identifier digits means an
	// extended frame even when the value fits 11 bits.
	frame := can.Frame{ID: id, Extended: len(row[2]) > 3 || id > can.MaxStandardID, Len: uint8(dlc)}
	if data := row[4]; data == "R" {
		frame.Remote = true
	} else if len(data) != 2*int(dlc) || !parseHexBytes(frame.Data[:dlc], data) {
		return Record{}, fmt.Errorf("%w: row %d: data %q for dlc %d", ErrSyntax, d.row, data, dlc)
	}
	// Reject rows a binary capture could not carry: an identifier wider
	// than 29 bits (candump and binary input reject it too), or a
	// channel/source the binary format cannot encode.
	if err := frame.Validate(); err != nil {
		return Record{}, fmt.Errorf("%w: row %d: %v", ErrSyntax, d.row, err)
	}
	if err := checkMeta(row[1], row[5]); err != nil {
		return Record{}, fmt.Errorf("%w: row %d: %v", ErrSyntax, d.row, err)
	}
	return Record{
		Time:     time.Duration(us) * time.Microsecond,
		Channel:  d.names.fromString(row[1]),
		Frame:    frame,
		Source:   d.names.fromString(row[5]),
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
	names   interner
}

// NewBinaryDecoder creates a streaming binary reader.
func NewBinaryDecoder(r io.Reader) *BinaryDecoder {
	return &BinaryDecoder{br: bufio.NewReader(r)}
}

// Reset makes d read a new stream from r, keeping its read buffer and
// interned names.
func (d *BinaryDecoder) Reset(r io.Reader) {
	d.br.Reset(r)
	d.started, d.count, d.read = false, 0, 0
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
	rec.Channel, rec.Source = d.names.fromBytes(channel), d.names.fromBytes(source)
	if peeked {
		d.br.Discard(metaLen) //nolint:errcheck // the bytes were just peeked
	}
	return rec, nil
}

// noEOF reports a stream that ends before its record count as
// truncated.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
