package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Errors returned by the log readers.
var (
	ErrSyntax = errors.New("trace: malformed log line")
)

// WriteCandump writes the trace in candump -l text format. Source and
// Injected are not representable in this format and are dropped; use the
// CSV or binary formats to keep ground truth.
func WriteCandump(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	for _, r := range t {
		ch := r.Channel
		if ch == "" {
			ch = "can0"
		}
		sec := r.Time / time.Second
		usec := (r.Time % time.Second) / time.Microsecond
		if _, err := fmt.Fprintf(bw, "(%d.%06d) %s %s\n", sec, usec, ch, r.Frame); err != nil {
			return fmt.Errorf("trace: write candump: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: write candump: %w", err)
	}
	return nil
}

// ReadCandump parses a candump -l text log.
func ReadCandump(r io.Reader) (Trace, error) {
	return ReadAll(NewCandumpDecoder(r))
}

var csvHeader = []string{"time_us", "channel", "id", "dlc", "data", "source", "injected"}

// WriteCSV writes the trace as CSV with full ground truth. Frame flags
// ride in the existing columns, candump-style, so the format loses
// nothing a capture can contain: extended identifiers print as 8 hex
// digits (digit count carries the IDE flag even for values that fit 11
// bits), and remote frames carry "R" in the data column with the
// requested DLC in its own column.
func WriteCSV(w io.Writer, t Trace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: write csv: %w", err)
	}
	for _, r := range t {
		inj := "0"
		if r.Injected {
			inj = "1"
		}
		id := fmt.Sprintf("%X", uint32(r.Frame.ID))
		if r.Frame.Extended {
			id = fmt.Sprintf("%08X", uint32(r.Frame.ID))
		}
		data := fmt.Sprintf("%X", r.Frame.Data[:r.Frame.Len])
		if r.Frame.Remote {
			data = "R"
		}
		row := []string{
			strconv.FormatInt(int64(r.Time/time.Microsecond), 10),
			r.Channel,
			id,
			strconv.Itoa(int(r.Frame.Len)),
			data,
			r.Source,
			inj,
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: write csv: %w", err)
	}
	return nil
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (Trace, error) {
	return ReadAll(NewCSVDecoder(r))
}

// Binary stream format (CTR1, little-endian): the magic and a uint64
// record count, then per record a fixed header — int64 time, uint16
// frame length, uint16 meta length, uint8 injected — followed by the
// frame (can.Frame.AppendBinary) and the meta bytes Channel NUL Source.
// appendRecord writes this layout and BinaryDecoder reads it; nothing
// else knows it.
var binaryMagic = [4]byte{'C', 'T', 'R', '1'}

// recordHeadLen is the size of a binary record's fixed header.
const recordHeadLen = 13

// ErrBinaryMeta reports a record whose Channel and Source the binary
// format cannot carry: a Channel containing NUL (the separator), or a
// meta field longer than its uint16 length prefix allows.
var ErrBinaryMeta = errors.New("trace: channel/source not representable in the binary format")

// AppendBinary appends the binary stream encoding of t to dst and
// returns the extended slice; it allocates only when dst lacks
// capacity. A record the reader could not give back — an invalid
// frame, or Channel/Source rejected with ErrBinaryMeta — makes it
// return dst unchanged and an error naming the record.
func AppendBinary(dst []byte, t Trace) ([]byte, error) {
	out := append(dst, binaryMagic[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(t)))
	for i := range t {
		var err error
		if out, err = appendRecord(out, &t[i]); err != nil {
			return dst, fmt.Errorf("trace: binary record %d: %w", i, err)
		}
	}
	return out, nil
}

// checkMeta reports whether the binary format can carry a record's
// Channel and Source, as an ErrBinaryMeta error when it cannot.
func checkMeta(channel, source string) error {
	if meta := len(channel) + 1 + len(source); meta > math.MaxUint16 {
		return fmt.Errorf("%w: %d meta bytes, at most %d", ErrBinaryMeta, meta, math.MaxUint16)
	}
	if strings.IndexByte(channel, 0) >= 0 {
		return fmt.Errorf("%w: channel %q contains NUL", ErrBinaryMeta, channel)
	}
	return nil
}

// appendRecord appends one record in the binary layout.
func appendRecord(b []byte, r *Record) ([]byte, error) {
	if err := checkMeta(r.Channel, r.Source); err != nil {
		return b, err
	}
	meta := len(r.Channel) + 1 + len(r.Source)
	head := len(b)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Time))
	b = append(b, 0, 0, 0, 0, 0) // frame length, meta length, injected
	b, err := r.Frame.AppendBinary(b)
	if err != nil {
		return b[:head], err
	}
	binary.LittleEndian.PutUint16(b[head+8:], uint16(len(b)-head-recordHeadLen))
	binary.LittleEndian.PutUint16(b[head+10:], uint16(meta))
	if r.Injected {
		b[head+12] = 1
	}
	b = append(b, r.Channel...)
	b = append(b, 0)
	return append(b, r.Source...), nil
}

// WriteBinary writes the trace in the binary stream format.
func WriteBinary(w io.Writer, t Trace) error {
	buf, err := AppendBinary(nil, t)
	if err != nil {
		return err
	}
	n, err := w.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return fmt.Errorf("trace: write binary: %w", err)
	}
	return nil
}

// ReadBinary reads a trace written by WriteBinary. Unlike a pre-sizing
// reader, it grows the result as records actually decode, so a forged
// record count cannot force a huge allocation.
func ReadBinary(r io.Reader) (Trace, error) {
	return ReadAll(NewBinaryDecoder(r))
}
