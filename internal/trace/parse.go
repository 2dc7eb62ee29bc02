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
// allocating. It is bounded, so a stream of ever-new names cannot grow
// it without limit: past the bounds, names still decode but cost an
// allocation each.
type interner struct {
	m    map[string]string
	last string // the name returned last, checked before m
}

// Bounds of an intern table.
const (
	maxInterned  = 256
	maxInternLen = 64
)

// fromBytes returns b as a string.
func (t *interner) fromBytes(b []byte) string {
	if string(b) == t.last {
		return t.last
	}
	if s, ok := t.m[string(b)]; ok {
		t.last = s
		return s
	}
	return t.keep(string(b))
}

// fromString returns s, or the equal string already interned.
func (t *interner) fromString(s string) string {
	if s == t.last {
		return t.last
	}
	if v, ok := t.m[s]; ok {
		t.last = v
		return v
	}
	// A CSV field shares its row's memory; the table keeps a copy.
	return t.keep(strings.Clone(s))
}

// keep adds s to the table while it has room. The first name is held
// in last alone, so a single-channel stream needs no map.
func (t *interner) keep(s string) string {
	switch {
	case len(s) > maxInternLen || len(t.m) >= maxInterned:
	case t.m == nil && t.last == "":
		t.last = s
	default:
		if t.m == nil {
			t.m = map[string]string{t.last: t.last}
		}
		t.m[s] = s
		t.last = s
	}
	return s
}
