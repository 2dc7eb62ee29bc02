package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
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

// Decoder yields the records of a log stream in the order they were
// written. Next returns io.EOF after the last record. The streaming
// engine consumes logs through this interface, so a capture never has
// to fit in memory at once; the batch readers (ReadCandump, ReadCSV,
// ReadBinary) are ReadAll over the same decoders. Each format's
// decoder also has Decode, which appends records straight into a
// caller's slab until it is full — Server.Ingest fills its engine
// slabs with it — through the same record parser as its Next.
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

// slot returns the first free slot of dst, past its length; dst must
// have room.
func slot(dst []Record) *Record { return &dst[:len(dst)+1][len(dst)] }

// CandumpDecoder streams a candump -l text log. A warm decoder
// allocates nothing per record: each line is parsed in the scanner's
// buffer, straight into the caller's slot, and channel names are
// interned. Reset points it at another stream, keeping its buffer and
// names.
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
func (d *CandumpDecoder) Next() (rec Record, err error) {
	err = d.next(&rec)
	return rec, err
}

// Decode appends the stream's next records to dst until len(dst) ==
// cap(dst) or the stream ends, when it returns io.EOF. The records
// before a malformed line come back with its error, which names the
// line.
func (d *CandumpDecoder) Decode(dst []Record) ([]Record, error) {
	for len(dst) < cap(dst) {
		if err := d.next(slot(dst)); err != nil {
			return dst, err
		}
		dst = dst[:len(dst)+1]
	}
	return dst, nil
}

// next decodes the stream's next record into rec, skipping blank and
// comment lines; it leaves rec alone when it returns an error.
func (d *CandumpDecoder) next(rec *Record) error {
	for d.sc.Scan() {
		d.line++
		line := d.sc.Bytes()
		if d.plain(line, rec) {
			return nil
		}
		var f [3][]byte
		n := fields(line, f[:])
		if n == 0 || f[0][0] == '#' {
			continue // blank or comment
		}
		if n != len(f) {
			return fmt.Errorf("%w: line %d: %q", ErrSyntax, d.line, bytes.TrimSpace(line))
		}
		t, ok := candumpTime(f[0])
		if !ok {
			return fmt.Errorf("%w: line %d: timestamp %q", ErrSyntax, d.line, f[0])
		}
		frame, ok := parseFrame(f[2])
		if !ok {
			// can.ParseFrame rejects it too and says why.
			var err error
			if frame, err = can.ParseFrame(string(f[2])); err != nil {
				return fmt.Errorf("trace: line %d: %w", d.line, err)
			}
		}
		*rec = Record{Time: t, Channel: d.names.fromBytes(f[1]), Frame: frame}
		return nil
	}
	if err := d.sc.Err(); err != nil {
		return fmt.Errorf("trace: read candump: %w", err)
	}
	return io.EOF
}

// plain decodes a line in the form candump writes — "(sec.usec)
// channel frame", split by single spaces — in one pass into rec, and
// reports false for any other line, which next then splits at white
// space in general. What it accepts, the general path accepts with the
// same result.
func (d *CandumpDecoder) plain(line []byte, rec *Record) bool {
	i := 0
	for i < len(line) && line[i] == '(' {
		i++
	}
	sec, i, ok := decAt(line, i, maxLogSeconds)
	if !ok || i == len(line) || line[i] != '.' {
		return false
	}
	usec, i, ok := decAt(line, i+1, 999_999)
	if !ok {
		return false
	}
	for i < len(line) && line[i] == ')' {
		i++
	}
	if i == len(line) || line[i] != ' ' {
		return false
	}
	start := i + 1
	for i = start; i < len(line) && line[i] > ' ' && line[i] < utf8.RuneSelf; i++ {
	}
	if i == start || i == len(line) || line[i] != ' ' {
		return false
	}
	frame, ok := parseFrame(line[i+1:])
	if !ok {
		return false
	}
	t := time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond
	*rec = Record{Time: t, Channel: d.names.fromBytes(line[start:i]), Frame: frame}
	return true
}

// CSVDecoder streams a trace written by WriteCSV. It reuses the CSV
// reader's row slice, parses fields in place, straight into the
// caller's slot, and interns channel and source names; Reset points it
// at another stream, keeping its read buffer and names.
type CSVDecoder struct {
	br    *bufio.Reader
	cr    *csv.Reader // over br, made by the first read of a stream
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
func (d *CSVDecoder) Next() (rec Record, err error) {
	err = d.next(&rec)
	return rec, err
}

// Decode appends the stream's next records to dst until len(dst) ==
// cap(dst) or the stream ends, when it returns io.EOF. The records
// before a malformed row come back with its error, which names the
// row.
func (d *CSVDecoder) Decode(dst []Record) ([]Record, error) {
	for len(dst) < cap(dst) {
		if err := d.next(slot(dst)); err != nil {
			return dst, err
		}
		dst = dst[:len(dst)+1]
	}
	return dst, nil
}

// next decodes the stream's next data row into rec; it leaves rec
// alone when it returns an error.
func (d *CSVDecoder) next(rec *Record) error {
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
			return io.EOF
		}
		if err != nil {
			return fmt.Errorf("trace: read csv: %w", err)
		}
		d.row++
		if d.row == 1 && row[0] == csvHeader[0] {
			continue // header
		}
		return d.record(row, rec)
	}
}

// record decodes one data row into rec.
func (d *CSVDecoder) record(row []string, rec *Record) error {
	us, ok := parseDec(row[0], maxLogMicros)
	if !ok {
		return fmt.Errorf("%w: row %d: time_us %q", ErrSyntax, d.row, row[0])
	}
	id, ok := parseHexID(row[2])
	if !ok {
		return fmt.Errorf("%w: row %d: id %q", ErrSyntax, d.row, row[2])
	}
	dlc, ok := parseDec(row[3], can.MaxDataLen)
	if !ok {
		return fmt.Errorf("%w: row %d: bad dlc %q", ErrSyntax, d.row, row[3])
	}
	// As in candump text, more than three identifier digits means an
	// extended frame even when the value fits 11 bits.
	frame := can.Frame{ID: id, Extended: len(row[2]) > 3 || id > can.MaxStandardID, Len: uint8(dlc)}
	if data := row[4]; data == "R" {
		frame.Remote = true
	} else if len(data) != 2*int(dlc) || !parseHexBytes(frame.Data[:dlc], data) {
		return fmt.Errorf("%w: row %d: data %q for dlc %d", ErrSyntax, d.row, data, dlc)
	}
	// Reject rows a binary capture could not carry: an identifier wider
	// than 29 bits (candump and binary input reject it too), or a
	// channel/source the binary format cannot encode.
	if err := frame.Validate(); err != nil {
		return fmt.Errorf("%w: row %d: %v", ErrSyntax, d.row, err)
	}
	if err := checkMeta(row[1], row[5]); err != nil {
		return fmt.Errorf("%w: row %d: %v", ErrSyntax, d.row, err)
	}
	*rec = Record{
		Time:     time.Duration(us) * time.Microsecond,
		Channel:  d.names.fromString(row[1]),
		Frame:    frame,
		Source:   d.names.fromString(row[5]),
		Injected: row[6] == "1",
	}
	return nil
}

// BinaryDecoder streams a trace written by WriteBinary. A warm decoder
// allocates nothing per record: every record whole in the read buffer
// is parsed in place, straight into the caller's slot, and
// Channel/Source strings are interned. Only a record longer than the
// read buffer takes a path that allocates.
type BinaryDecoder struct {
	br      *bufio.Reader
	started bool
	count   uint64
	read    uint64
	head    [8]byte // the stream header's magic, then its count
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

// Next implements Decoder: it is a one-record Decode.
func (d *BinaryDecoder) Next() (Record, error) {
	var one [1]Record
	got, err := d.Decode(one[:0])
	if len(got) == 0 {
		return Record{}, err
	}
	return got[0], nil
}

// Decode appends the stream's next records to dst until len(dst) ==
// cap(dst) or the stream ends, when it returns io.EOF. It parses every
// whole record the read buffer holds and then advances the buffer once
// past them; a record that straddles the buffer's end is made whole
// first (straddling). The records before a malformed one come back
// with its error, which names the record's index.
func (d *BinaryDecoder) Decode(dst []Record) ([]Record, error) {
	if !d.started {
		d.started = true
		magic := d.head[:len(binaryMagic)]
		if _, err := io.ReadFull(d.br, magic); err != nil {
			return dst, fmt.Errorf("trace: read binary: %w", err)
		}
		if [len(binaryMagic)]byte(magic) != binaryMagic {
			return dst, fmt.Errorf("trace: read binary: bad magic %q", magic)
		}
		if _, err := io.ReadFull(d.br, d.head[:8]); err != nil {
			return dst, fmt.Errorf("trace: read binary: %w", err)
		}
		d.count = binary.LittleEndian.Uint64(d.head[:8])
	}
	for len(dst) < cap(dst) {
		if d.read >= d.count {
			return dst, io.EOF
		}
		span, _ := d.br.Peek(d.br.Buffered())
		off := 0
		var err error
		for len(dst) < cap(dst) && d.read < d.count {
			var n int
			if n, err = d.parse(span[off:], slot(dst)); err != nil {
				break
			}
			dst = dst[:len(dst)+1]
			off += n
			d.read++
		}
		d.br.Discard(off) //nolint:errcheck // the bytes were just peeked
		if err == errPartial {
			if err = d.straddling(slot(dst)); err == nil {
				dst = dst[:len(dst)+1]
				d.read++
			}
		}
		if err != nil {
			return dst, fmt.Errorf("trace: read binary record %d: %w", d.read, err)
		}
	}
	return dst, nil
}

// errPartial reports that a byte span ends inside the record it starts
// with.
var errPartial = errors.New("trace: partial binary record")

// parse decodes the record b starts with into rec and returns the
// record's length. It returns errPartial when b ends inside the
// record, unless b holds the whole frame and the frame is invalid: that
// error comes first, as the frame is checked before the meta is read.
func (d *BinaryDecoder) parse(b []byte, rec *Record) (int, error) {
	if len(b) < recordHeadLen {
		return 0, errPartial
	}
	frameEnd, n := recordLen(b)
	if len(b) < frameEnd {
		return 0, errPartial
	}
	var frame can.Frame
	// UnmarshalBinary ignores frame bytes past the frame's data.
	if err := frame.UnmarshalBinary(b[recordHeadLen:frameEnd]); err != nil {
		return 0, err
	}
	if len(b) < n {
		return 0, errPartial
	}
	channel, source, _ := bytes.Cut(b[frameEnd:n], []byte{0})
	*rec = Record{
		Time:     time.Duration(binary.LittleEndian.Uint64(b)),
		Frame:    frame,
		Channel:  d.names.fromBytes(channel),
		Source:   d.names.fromBytes(source),
		Injected: b[12] == 1,
	}
	return n, nil
}

// recordLen returns where the frame of the record whose header b
// starts with ends, and where the record ends.
func recordLen(b []byte) (frameEnd, n int) {
	frameEnd = recordHeadLen + int(binary.LittleEndian.Uint16(b[8:10]))
	return frameEnd, frameEnd + int(binary.LittleEndian.Uint16(b[10:12]))
}

// straddling decodes the record at the read position into rec when the
// read buffer holds only part of it. The buffer is filled up to the
// record's length; a record longer than the buffer is read into memory
// of its own, the one path that allocates.
func (d *BinaryDecoder) straddling(rec *Record) error {
	head, err := d.br.Peek(recordHeadLen)
	if err != nil {
		return noEOF(err)
	}
	_, n := recordLen(head)
	b, err := d.br.Peek(n)
	peeked := err == nil
	if err == bufio.ErrBufferFull {
		b = make([]byte, n)
		var got int
		got, err = io.ReadFull(d.br, b)
		b = b[:got]
	}
	// A stream that ends inside the meta still reports an invalid frame.
	if _, perr := d.parse(b, rec); perr != errPartial {
		if perr == nil && peeked {
			d.br.Discard(n) //nolint:errcheck // the bytes were just peeked
		}
		return perr
	}
	return noEOF(err)
}

// noEOF reports a stream that ends before its record count as
// truncated.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
