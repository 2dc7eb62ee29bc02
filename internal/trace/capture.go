package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"canids/internal/can"
)

// Compact capture entry (CTC1): one demuxed slab of one channel, the
// payload of a record/replay capture journal entry. Varints are
// encoding/binary's (uvarint, and zigzag varint for signed values):
//
//	"CTC1"                      magic
//	uvarint                     record count
//	uvarint length, bytes       the channel, once for every record
//	per record:
//	  varint                    time minus the previous record's time
//	                            (the first record's: minus 0), in
//	                            wrapping int64 arithmetic
//	  byte                      flags: bit 0 extended, bit 1 remote,
//	                            bit 2 injected, bit 3 source change;
//	                            bits 4–7 the DLC (0–8)
//	  uvarint                   identifier
//	  DLC bytes                 data
//	  with bit 3 set, uvarint   source reference: k > 0 is the entry's
//	                            k-th interned source; 0 is a new source,
//	                            its uvarint length and bytes following,
//	                            interned next while the entry holds
//	                            fewer than maxCaptureSources
//
// A record without bit 3 has the previous record's Source (the first
// record: ""). Data bytes past the DLC are not part of the frame and
// are not carried. AppendCapture writes this layout and DecodeCapture
// reads it; nothing else knows it.
var captureMagic = [4]byte{'C', 'T', 'C', '1'}

const (
	captureExtended = 1 << iota
	captureRemote
	captureInjected
	captureSource
	captureFlags = 1<<4 - 1

	// maxCaptureSources bounds one entry's source table; the encoder
	// finds a source in it through captureSlots hash slots, at most
	// half of them full.
	maxCaptureSources = 64
	captureSlots      = 2 * maxCaptureSources
	// minCaptureRecord and maxCaptureRecord bound an encoded record
	// but a new source's name: a time delta of one to ten bytes, the
	// flags byte, an identifier of one to five bytes, up to eight data
	// bytes, and a one-byte source reference.
	minCaptureRecord = 3
	maxCaptureRecord = binary.MaxVarintLen64 + 1 + binary.MaxVarintLen32 + can.MaxDataLen + 1
)

// ErrCaptureChannel reports a slab AppendCapture cannot encode as one
// entry: its records do not all share the first record's Channel.
var ErrCaptureChannel = errors.New("trace: capture slab mixes channels")

// errCapture wraps every malformed-entry error from DecodeCapture.
var errCapture = errors.New("trace: malformed capture entry")

// AppendCapture appends the compact capture encoding of slab — records
// of one channel — to dst and returns the extended slice. It allocates
// only when dst lacks capacity. A slab it could not give back (an
// invalid frame, or mixed channels) makes it return dst unchanged and
// an error naming the record.
func AppendCapture(dst []byte, slab []Record) ([]byte, error) {
	var channel string
	if len(slab) > 0 {
		channel = slab[0].Channel
	}
	out := append(dst, captureMagic[:]...)
	out = binary.AppendUvarint(out, uint64(len(slab)))
	out = binary.AppendUvarint(out, uint64(len(channel)))
	out = append(out, channel...)
	// Room for every record but its source up front, so the fields go
	// in by index: w is the write offset into buf.
	out = slices.Grow(out, len(slab)*maxCaptureRecord)
	buf, w := out[:cap(out)], len(out)
	var (
		table  [maxCaptureSources]string
		slots  [captureSlots]uint8 // table index + 1 by name hash; 0 empty
		n      int
		source string // the previous record's, and its hash slot
		home   int
		prev   time.Duration
	)
	for i := range slab {
		r := &slab[i]
		if r.Channel != channel {
			return dst, fmt.Errorf("trace: capture record %d: %w: %q after %q", i, ErrCaptureChannel, r.Channel, channel)
		}
		f := &r.Frame
		if f.Len > can.MaxDataLen || !f.ID.Valid(f.Extended) {
			return dst, fmt.Errorf("trace: capture record %d: %w", i, f.Validate())
		}
		// A source hashing to another slot differs without a byte
		// compare; on a bus that changes source every frame, most do.
		src := r.Source
		slot := sourceSlot(src)
		changed := slot != home || src != source
		flags := f.Len << 4
		if f.Extended {
			flags |= captureExtended
		}
		if f.Remote {
			flags |= captureRemote
		}
		if r.Injected {
			flags |= captureInjected
		}
		if changed {
			flags |= captureSource
		}
		b := buf[w : w+maxCaptureRecord]
		// The time delta, zigzagged as binary.PutVarint does, and the
		// identifier: put4 writes the values below 1<<28 they mostly
		// take.
		d := int64(r.Time - prev)
		prev = r.Time
		var k int
		if u := uint64(d<<1) ^ uint64(d>>63); u < 1<<28 {
			k = put4(b, u)
		} else {
			k = binary.PutUvarint(b, u)
		}
		b[k] = flags
		k++
		if f.ID < 1<<28 {
			k += put4(b[k:], uint64(f.ID))
		} else {
			k += binary.PutUvarint(b[k:], uint64(f.ID))
		}
		// All eight data bytes in one store; the DLC's worth is kept.
		binary.LittleEndian.PutUint64(b[k:], binary.LittleEndian.Uint64(f.Data[:]))
		w += k + int(f.Len)
		if !changed {
			continue
		}
		source, home = src, slot
		// Look the source up from its hash slot, probing on.
		ref := 0
		for ; slots[slot] != 0; slot = (slot + 1) & (captureSlots - 1) {
			if k := int(slots[slot]); table[k-1] == source {
				ref = k
				break
			}
		}
		buf[w] = byte(ref) // at most maxCaptureSources: one byte
		w++
		if ref > 0 {
			continue
		}
		// A new source: its length and bytes, keeping room for the
		// records still to come.
		need := binary.MaxVarintLen64 + len(source) + (len(slab)-i-1)*maxCaptureRecord
		if len(buf)-w < need {
			buf = slices.Grow(buf[:w], need)
			buf = buf[:cap(buf)]
		}
		w += binary.PutUvarint(buf[w:], uint64(len(source)))
		w += copy(buf[w:], source)
		if n < maxCaptureSources {
			table[n] = source
			n++
			slots[slot] = uint8(n)
		}
	}
	return buf[:w], nil
}

// sourceSlot is a source name's home slot in AppendCapture's table.
func sourceSlot(s string) int {
	n := len(s)
	if n == 0 {
		return 0
	}
	return (n ^ int(s[0])<<1 ^ int(s[n-1])<<4 ^ int(s[n/2])<<2) & (captureSlots - 1)
}

// put4 writes v < 1<<28 as a uvarint into b, which has room for four
// bytes: all four are written, continuation bits set, and the last one
// the value needs has its bit cleared — no loop, no data-dependent
// branch.
func put4(b []byte, v uint64) int {
	_ = b[3]
	b[0] = byte(v) | 0x80
	b[1] = byte(v>>7) | 0x80
	b[2] = byte(v>>14) | 0x80
	b[3] = byte(v >> 21)
	n := (bits.Len64(v|1) + 6) / 7
	b[n-1] &^= 0x80
	return n
}

// DecodeCapture decodes one entry written by AppendCapture and appends
// its records to dst. What it allocates is bounded by the entry's
// length, whatever the entry claims: the records it holds room for,
// the channel, and each new source.
func DecodeCapture(dst []Record, entry []byte) ([]Record, error) {
	if len(entry) < len(captureMagic) || [4]byte(entry) != captureMagic {
		return dst, fmt.Errorf("%w: bad magic", errCapture)
	}
	d := captureReader{b: entry, off: len(captureMagic)}
	count := d.uvarint()
	channel := d.str()
	if d.err != nil {
		return dst, d.err
	}
	if room := uint64(len(entry)-d.off) / minCaptureRecord; count > room {
		return dst, fmt.Errorf("%w: %d records claimed, room for %d", errCapture, count, room)
	}
	dst = slices.Grow(dst, int(count))
	var (
		table  []string
		source string
		prev   time.Duration
	)
	for i := uint64(0); i < count; i++ {
		u := d.uvarint()
		prev += time.Duration(int64(u>>1) ^ -int64(u&1)) // zigzag
		flags := d.bytes(1)
		id := d.uvarint()
		if d.err != nil {
			return dst, fmt.Errorf("record %d: %w", i, d.err)
		}
		r := Record{Time: prev, Channel: channel, Injected: flags[0]&captureInjected != 0}
		f := &r.Frame
		f.Extended, f.Remote, f.Len = flags[0]&captureExtended != 0, flags[0]&captureRemote != 0, flags[0]>>4
		if flags[0]&captureFlags&^(captureExtended|captureRemote|captureInjected|captureSource) != 0 ||
			f.Len > can.MaxDataLen || id > uint64(can.MaxExtendedID) || !can.ID(id).Valid(f.Extended) {
			return dst, fmt.Errorf("%w: record %d: flags %#x, identifier %#x", errCapture, i, flags[0], id)
		}
		f.ID = can.ID(id)
		copy(f.Data[:], d.bytes(int(f.Len)))
		if flags[0]&captureSource != 0 {
			switch ref := d.uvarint(); {
			case ref == 0:
				source = d.str()
				if len(table) < maxCaptureSources {
					table = append(table, source)
				}
			case ref <= uint64(len(table)):
				source = table[ref-1]
			default:
				return dst, fmt.Errorf("%w: record %d: source %d of %d", errCapture, i, ref, len(table))
			}
		}
		if d.err != nil {
			return dst, fmt.Errorf("record %d: %w", i, d.err)
		}
		r.Source = source
		dst = append(dst, r)
	}
	if d.off != len(entry) {
		return dst, fmt.Errorf("%w: %d bytes after the last record", errCapture, len(entry)-d.off)
	}
	return dst, nil
}

// captureReader walks a capture entry; the first short or malformed
// field sets err, and every read after it returns zero values.
type captureReader struct {
	b   []byte
	off int
	err error
}

func (d *captureReader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at byte %d", errCapture, what, d.off)
	}
}

func (d *captureReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// bytes reads n bytes; after a failure it returns n zero bytes.
func (d *captureReader) bytes(n int) []byte {
	if d.err == nil && n > len(d.b)-d.off {
		d.fail("short field")
	}
	if d.err != nil {
		return make([]byte, n)
	}
	d.off += n
	return d.b[d.off-n : d.off]
}

// str reads a uvarint length and that many bytes as a string.
func (d *captureReader) str() string {
	if n := d.uvarint(); n <= uint64(len(d.b)-d.off) {
		return string(d.bytes(int(n)))
	}
	d.fail("short string")
	return ""
}
