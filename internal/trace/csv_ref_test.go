package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"canids/internal/can"
)

// refCSVDecoder is the original CSV decoder — a fresh row slice and
// strconv on substrings per row — kept as the reference that
// FuzzReadCSV holds CSVDecoder to.
type refCSVDecoder struct {
	cr  *csv.Reader
	row int
}

// newRefCSVDecoder creates a reference decoder over r.
func newRefCSVDecoder(r io.Reader) *refCSVDecoder {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	return &refCSVDecoder{cr: cr}
}

// Next implements Decoder.
func (d *refCSVDecoder) Next() (Record, error) {
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
		return refParseCSVRow(row, d.row)
	}
}

// refParseCSVRow is the original parseCSVRow.
func refParseCSVRow(row []string, rowNum int) (Record, error) {
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
	if err := frame.Validate(); err != nil {
		return Record{}, fmt.Errorf("%w: row %d: %v", ErrSyntax, rowNum, err)
	}
	if err := checkMeta(row[1], row[5]); err != nil {
		return Record{}, fmt.Errorf("%w: row %d: %v", ErrSyntax, rowNum, err)
	}
	return Record{
		Time:     time.Duration(us) * time.Microsecond,
		Channel:  row[1],
		Frame:    frame,
		Source:   row[5],
		Injected: row[6] == "1",
	}, nil
}
