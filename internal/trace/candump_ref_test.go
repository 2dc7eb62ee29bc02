package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"canids/internal/can"
)

// refCandumpDecoder is the original candump decoder — sc.Text,
// strings.TrimSpace, strings.Fields, strconv and can.ParseFrame per
// line — kept as the reference that FuzzReadCandump holds
// CandumpDecoder to.
type refCandumpDecoder struct {
	sc   *bufio.Scanner
	line int
}

// newRefCandumpDecoder creates a reference decoder over r.
func newRefCandumpDecoder(r io.Reader) *refCandumpDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &refCandumpDecoder{sc: sc}
}

// Next implements Decoder.
func (d *refCandumpDecoder) Next() (Record, error) {
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
