package can

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Compact binary codec used by trace files and network transports.
//
// Layout (little-endian):
//
//	uint32 id      identifier (11 or 29 significant bits)
//	uint8  flags   bit0 extended, bit1 remote
//	uint8  len     DLC
//	[len]  data
const (
	flagExtended = 1 << 0
	flagRemote   = 1 << 1

	binaryHeaderLen = 6

	// MaxWireSize is the largest encoding AppendBinary produces.
	MaxWireSize = binaryHeaderLen + MaxDataLen
)

// AppendBinary appends the frame's compact binary encoding to b
// (encoding.BinaryAppender). It allocates only when b lacks capacity,
// and returns b unchanged with an error for a frame that fails Validate.
func (f Frame) AppendBinary(b []byte) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return b, err
	}
	var flags byte
	if f.Extended {
		flags |= flagExtended
	}
	if f.Remote {
		flags |= flagRemote
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(f.ID))
	b = append(b, flags, f.Len)
	return append(b, f.Data[:f.Len]...), nil
}

// MarshalBinary encodes the frame in the compact binary layout.
func (f Frame) MarshalBinary() ([]byte, error) {
	buf, err := f.AppendBinary(make([]byte, 0, MaxWireSize))
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// UnmarshalBinary decodes a frame previously encoded with MarshalBinary.
func (f *Frame) UnmarshalBinary(data []byte) error {
	if len(data) < binaryHeaderLen {
		return fmt.Errorf("%w: %d bytes", ErrShortFrame, len(data))
	}
	id := ID(binary.LittleEndian.Uint32(data[0:4]))
	flags := data[4]
	dlc := data[5]
	if dlc > MaxDataLen {
		return fmt.Errorf("%w: DLC=%d", ErrDataLen, dlc)
	}
	if len(data) < binaryHeaderLen+int(dlc) {
		return fmt.Errorf("%w: want %d data bytes, have %d", ErrShortFrame, dlc, len(data)-binaryHeaderLen)
	}
	g := Frame{
		ID:       id,
		Extended: flags&flagExtended != 0,
		Remote:   flags&flagRemote != 0,
		Len:      dlc,
	}
	copy(g.Data[:], data[binaryHeaderLen:binaryHeaderLen+int(dlc)])
	if err := g.Validate(); err != nil {
		return err
	}
	*f = g
	return nil
}

// WireSize returns the encoded size of the frame under MarshalBinary.
func (f Frame) WireSize() int { return binaryHeaderLen + int(f.Len) }

// ParseFrame parses candump notation: "ID#HEXDATA", "ID#R" (remote) or
// "ID#Rn" (remote with DLC n). Identifiers with more than three hex
// digits, or values above 0x7FF, are treated as extended.
func ParseFrame(s string) (Frame, error) {
	var f Frame
	idStr, dataStr, ok := strings.Cut(s, "#")
	if !ok {
		return f, fmt.Errorf("can: parse %q: missing '#'", s)
	}
	idVal, err := strconv.ParseUint(idStr, 16, 32)
	if err != nil {
		return f, fmt.Errorf("can: parse id %q: %w", idStr, err)
	}
	f.ID = ID(idVal)
	if len(idStr) > 3 || f.ID > MaxStandardID {
		f.Extended = true
	}
	if strings.HasPrefix(dataStr, "R") || strings.HasPrefix(dataStr, "r") {
		f.Remote = true
		if rest := dataStr[1:]; rest != "" {
			dlc, err := strconv.ParseUint(rest, 10, 8)
			if err != nil {
				return f, fmt.Errorf("can: parse remote DLC %q: %w", rest, err)
			}
			if dlc > MaxDataLen {
				return f, fmt.Errorf("%w: DLC=%d", ErrDataLen, dlc)
			}
			f.Len = uint8(dlc)
		}
		if err := f.Validate(); err != nil {
			return Frame{}, err
		}
		return f, nil
	}
	if len(dataStr)%2 != 0 {
		return f, fmt.Errorf("can: parse data %q: odd hex length", dataStr)
	}
	if len(dataStr)/2 > MaxDataLen {
		return f, fmt.Errorf("%w: %d", ErrDataLen, len(dataStr)/2)
	}
	for i := 0; i < len(dataStr); i += 2 {
		b, err := strconv.ParseUint(dataStr[i:i+2], 16, 8)
		if err != nil {
			return f, fmt.Errorf("can: parse data %q: %w", dataStr, err)
		}
		f.Data[i/2] = byte(b)
	}
	f.Len = uint8(len(dataStr) / 2)
	if err := f.Validate(); err != nil {
		return Frame{}, err
	}
	return f, nil
}
