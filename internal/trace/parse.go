package trace

import (
	"bytes"
	"math"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"canids/internal/can"
)

// The text decoders parse in place, from the bytes of a line or field,
// with the helpers below. Each accepts exactly what the strconv, strings
// and can.ParseFrame calls it replaces accept; the differential fuzzers
// (FuzzReadCandump, FuzzReadCSV) hold them to the original decoders kept
// in candump_ref_test.go and csv_ref_test.go.

// unhex maps a byte to its hex digit value, or 0xFF when it is none.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xFF
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = byte(c - 'a' + 10)
		t[c-'a'+'A'] = byte(c - 'a' + 10)
	}
	return t
}()

// decAt parses the optionally signed decimal that starts at b[i], as
// strconv.ParseInt(…, 10, 64) does, up to the first byte that is not a
// digit. It returns the value, the index of that byte, and whether the
// value lies in [0, max]; "-0" is 0. max must be below
// math.MaxInt64/10.
func decAt[T string | []byte](b T, i int, max int64) (int64, int, bool) {
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	start := i
	var v int64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if v = v*10 + int64(b[i]-'0'); v > max {
			return 0, i, false
		}
	}
	return v, i, i > start && (!neg || v == 0)
}

// parseDec parses all of s as decAt does.
func parseDec[T string | []byte](s T, max int64) (int64, bool) {
	v, i, ok := decAt(s, 0, max)
	return v, ok && i == len(s)
}

// parseDigits parses all of s as decimal digits without a sign, as
// strconv.ParseUint(s, 10, 64) does, and reports whether the value is
// at most max.
func parseDigits[T string | []byte](s T, max int64) (int64, bool) {
	if len(s) == 0 || s[0]-'0' > 9 {
		return 0, false
	}
	return parseDec(s, max)
}

// parseHexID parses one or more hex digits as strconv.ParseUint(s, 16,
// 32) does.
func parseHexID[T string | []byte](s T) (can.ID, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		d := unhex[s[i]]
		if d > 0xF {
			return 0, false
		}
		if v = v<<4 | uint64(d); v > math.MaxUint32 {
			return 0, false
		}
	}
	return can.ID(v), true
}

// parseHexBytes decodes pairs of hex digits from s into dst, which
// must hold len(s)/2 bytes; len(s) must be even.
func parseHexBytes[T string | []byte](dst []byte, s T) bool {
	for i := range dst {
		hi, lo := unhex[s[2*i]], unhex[s[2*i+1]]
		if hi|lo > 0xF {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

// parseFrame parses a candump frame field — ID#DATA, ID#R or ID#R<dlc>
// — accepting exactly what can.ParseFrame accepts. It returns false
// for anything else; can.ParseFrame then words the error.
func parseFrame(b []byte) (can.Frame, bool) {
	var f can.Frame
	var id uint64
	hash := 0
	for ; hash < len(b) && b[hash] != '#'; hash++ {
		d := unhex[b[hash]]
		if id = id<<4 | uint64(d); d > 0xF || id > math.MaxUint32 {
			return f, false
		}
	}
	if hash == 0 || hash == len(b) {
		return f, false
	}
	f.ID = can.ID(id)
	f.Extended = hash > 3 || f.ID > can.MaxStandardID
	data := b[hash+1:]
	if len(data) > 0 && (data[0] == 'R' || data[0] == 'r') {
		f.Remote = true
		if len(data) > 1 {
			dlc, ok := parseDigits(data[1:], can.MaxDataLen)
			if !ok {
				return f, false
			}
			f.Len = uint8(dlc)
		}
	} else {
		if len(data)%2 != 0 || len(data) > 2*can.MaxDataLen || !parseHexBytes(f.Data[:len(data)/2], data) {
			return f, false
		}
		f.Len = uint8(len(data) / 2)
	}
	return f, f.ID.Valid(f.Extended)
}

// candumpTime parses a candump timestamp field, "(sec.usec)", as the
// original decoder did: every leading and trailing parenthesis is
// trimmed, and both halves are signed decimals within the log range.
func candumpTime(b []byte) (time.Duration, bool) {
	for len(b) > 0 && (b[0] == '(' || b[0] == ')') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == '(' || b[len(b)-1] == ')') {
		b = b[:len(b)-1]
	}
	dot := bytes.IndexByte(b, '.')
	if dot < 0 {
		return 0, false
	}
	sec, ok := parseDec(b[:dot], maxLogSeconds)
	if !ok {
		return 0, false
	}
	usec, ok := parseDec(b[dot+1:], 999_999)
	if !ok {
		return 0, false
	}
	return time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond, true
}

// fields splits line at white space as strings.Fields does — Unicode
// white space, so U+0085 and U+00A0 separate fields too — into f. It
// returns how many fields the line has, counting at most len(f)+1.
func fields(line []byte, f [][]byte) int {
	n, i := 0, 0
	for {
		for i < len(line) {
			c := byteClass[line[i]]
			if c == 1 {
				i++
				continue
			}
			if c == 2 {
				if w := unicodeSpace(line[i:]); w > 0 {
					i += w
					continue
				}
			}
			break
		}
		if i == len(line) {
			return n
		}
		if n == len(f) {
			return n + 1
		}
		start := i
		// Stepping one byte at a time is safe inside a multi-byte rune:
		// no continuation byte starts a valid encoding.
		for i < len(line) {
			if c := byteClass[line[i]]; c == 1 || c == 2 && unicodeSpace(line[i:]) > 0 {
				break
			}
			i++
		}
		f[n] = line[start:i]
		n++
	}
}

// byteClass sorts bytes for fields: 1 for ASCII white space, 2 for a
// byte that may start a multi-byte rune, 0 for the rest.
var byteClass = func() (t [256]byte) {
	for _, c := range "\t\n\v\f\r " {
		t[c] = 1
	}
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = 2
	}
	return t
}()

// unicodeSpace returns the width of the white-space rune b starts
// with, or 0 when it starts with none.
func unicodeSpace(b []byte) int {
	r, w := utf8.DecodeRune(b)
	if unicode.IsSpace(r) {
		return w
	}
	return 0
}

// interner hands out one shared string per distinct name, so a warm
// decoder turns a channel or source name into a string without
// allocating. The first name lives in a field of its own, so a
// one-channel stream needs no table. From the second name on, names go
// into an open-addressed table of fixed size, found by hashing a name's
// length and its first and last four bytes, so the alternating channel
// and source names of a mixed-bus stream cost a hash and a compare
// each, not a map lookup. The table is bounded, so a stream of
// ever-new names cannot grow it without limit, and so is a probe, so
// names made to collide cannot slow it down: past the bounds, names
// still decode but cost an allocation each.
type interner struct {
	one   string               // the only name, until a second arrives
	n     int                  // names in table
	table *[internSlots]string // made when a second name arrives
}

// Bounds of an intern table: names held, bytes per name, and slots
// probed per lookup.
const (
	maxInterned  = 256
	maxInternLen = 64
	maxProbe     = 8
	internBits   = 9
	internSlots  = 1 << internBits // twice maxInterned
)

// fromBytes returns b as a string.
func (t *interner) fromBytes(b []byte) string {
	if t.table == nil {
		if string(b) == t.one {
			return t.one
		}
	} else if len(b) > 0 && len(b) <= maxInternLen {
		for i, p := internHash(b), 0; p < maxProbe && t.table[i] != ""; i, p = (i+1)%internSlots, p+1 {
			if s := t.table[i]; s == string(b) {
				return s
			}
		}
	}
	return t.keep(string(b))
}

// fromString returns s, or the equal string already interned.
func (t *interner) fromString(s string) string {
	if t.table == nil {
		if s == t.one {
			return t.one
		}
	} else if len(s) > 0 && len(s) <= maxInternLen {
		for i, p := internHash(s), 0; p < maxProbe && t.table[i] != ""; i, p = (i+1)%internSlots, p+1 {
			if v := t.table[i]; v == s {
				return v
			}
		}
	}
	// A CSV field shares its row's memory; the table keeps a copy.
	return t.keep(strings.Clone(s))
}

// keep interns s, a name not interned yet, while the bounds allow.
func (t *interner) keep(s string) string {
	if len(s) == 0 || len(s) > maxInternLen {
		return s
	}
	if t.table == nil {
		if t.one == "" {
			t.one = s
			return s
		}
		t.table = new([internSlots]string)
		t.insert(t.one)
	}
	t.insert(s)
	return s
}

// insert puts s into the first empty slot of its probe, unless the
// table is full or the probe finds no empty slot.
func (t *interner) insert(s string) {
	if t.n == maxInterned {
		return
	}
	for i, p := internHash(s), 0; p < maxProbe; i, p = (i+1)%internSlots, p+1 {
		if t.table[i] == "" {
			t.table[i] = s
			t.n++
			return
		}
	}
}

// internHash returns the slot a probe for b starts at, from b's length
// and its first and last four bytes; b must not be empty.
func internHash[T string | []byte](b T) int {
	n := len(b)
	var lo, hi uint32
	if n >= 4 {
		lo = uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
		hi = uint32(b[n-4]) | uint32(b[n-3])<<8 | uint32(b[n-2])<<16 | uint32(b[n-1])<<24
	} else {
		lo = uint32(b[0]) | uint32(b[n/2])<<8 | uint32(b[n-1])<<16
	}
	return int((lo*0x9E3779B1 ^ hi*0x85EBCA77 ^ uint32(n)) * 0xC2B2AE3D >> (32 - internBits))
}
