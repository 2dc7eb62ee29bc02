package can

import (
	"bytes"
	"encoding"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIDBit(t *testing.T) {
	tests := []struct {
		name  string
		id    ID
		width int
		want  [11]int
	}{
		{"zero", 0x000, 11, [11]int{}},
		{"all ones", 0x7FF, 11, [11]int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{"msb only", 0x400, 11, [11]int{1}},
		{"lsb only", 0x001, 11, [11]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}},
		{"alternating", 0x555, 11, [11]int{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for i := 1; i <= 11; i++ {
				if got := tt.id.Bit(i, tt.width); got != tt.want[i-1] {
					t.Errorf("ID(%#x).Bit(%d) = %d, want %d", uint32(tt.id), i, got, tt.want[i-1])
				}
			}
		})
	}
}

func TestIDBitPanics(t *testing.T) {
	for _, i := range []int{0, 12, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d, 11) did not panic", i)
				}
			}()
			ID(0x123).Bit(i, 11)
		}()
	}
}

func TestIDValid(t *testing.T) {
	if !ID(0x7FF).Valid(false) {
		t.Error("0x7FF should be a valid standard ID")
	}
	if ID(0x800).Valid(false) {
		t.Error("0x800 should not be a valid standard ID")
	}
	if !ID(0x1FFFFFFF).Valid(true) {
		t.Error("0x1FFFFFFF should be a valid extended ID")
	}
	if ID(0x20000000).Valid(true) {
		t.Error("0x20000000 should not be a valid extended ID")
	}
}

func TestNewFrame(t *testing.T) {
	f, err := NewFrame(0x123, []byte{0xDE, 0xAD})
	if err != nil {
		t.Fatalf("NewFrame: %v", err)
	}
	if f.ID != 0x123 || f.Len != 2 || f.Data[0] != 0xDE || f.Data[1] != 0xAD {
		t.Errorf("unexpected frame: %+v", f)
	}

	if _, err := NewFrame(0x800, nil); !errors.Is(err, ErrIDRange) {
		t.Errorf("out-of-range ID: got %v, want ErrIDRange", err)
	}
	if _, err := NewFrame(0x1, make([]byte, 9)); !errors.Is(err, ErrDataLen) {
		t.Errorf("oversized data: got %v, want ErrDataLen", err)
	}
}

func TestFrameString(t *testing.T) {
	tests := []struct {
		frame Frame
		want  string
	}{
		{MustFrame(0x123, []byte{0xDE, 0xAD, 0xBE, 0xEF}), "123#DEADBEEF"},
		{MustFrame(0x7FF, nil), "7FF#"},
		{Frame{ID: 0x100, Remote: true, Len: 4}, "100#R4"},
		{Frame{ID: 0x100, Remote: true}, "100#R"},
		// Extended flag survives printing even when the ID fits 11 bits.
		{Frame{ID: 0x0F2, Extended: true}, "000000F2#"},
	}
	for _, tt := range tests {
		if got := tt.frame.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestParseFrameRoundTrip(t *testing.T) {
	tests := []string{"123#DEADBEEF", "7FF#", "000#00", "0AB#0102030405060708"}
	for _, s := range tests {
		f, err := ParseFrame(s)
		if err != nil {
			t.Fatalf("ParseFrame(%q): %v", s, err)
		}
		if got := f.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseFrameErrors(t *testing.T) {
	bad := []string{"123", "XYZ#00", "123#0", "123#010203040506070809", "123#GG"}
	for _, s := range bad {
		if _, err := ParseFrame(s); err == nil {
			t.Errorf("ParseFrame(%q) succeeded, want error", s)
		}
	}
}

func TestParseFrameRemote(t *testing.T) {
	f, err := ParseFrame("123#R4")
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if !f.Remote || f.Len != 4 {
		t.Errorf("got %+v, want remote DLC 4", f)
	}
}

func TestParseFrameExtended(t *testing.T) {
	f, err := ParseFrame("18FF0102#00")
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if !f.Extended {
		t.Error("long ID should parse as extended")
	}
}

func TestCRC15KnownVectors(t *testing.T) {
	// CRC of an empty sequence is zero.
	if got := CRC15(nil); got != 0 {
		t.Errorf("CRC15(nil) = %#x, want 0", got)
	}
	// A single dominant bit leaves the register at zero.
	if got := CRC15([]byte{0}); got != 0 {
		t.Errorf("CRC15({0}) = %#x, want 0", got)
	}
	// A single recessive bit loads the polynomial.
	if got := CRC15([]byte{1}); got != crcPoly {
		t.Errorf("CRC15({1}) = %#x, want %#x", got, crcPoly)
	}
}

func TestCRC15DetectsSingleBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bits := make([]byte, 83)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	orig := CRC15(bits)
	for i := range bits {
		bits[i] ^= 1
		if CRC15(bits) == orig {
			t.Errorf("flip of bit %d not detected", i)
		}
		bits[i] ^= 1
	}
}

func TestStuffDestuffRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	prop := func(raw []byte) bool {
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		stuffed := Stuff(bits)
		// No six identical bits in a row may appear after stuffing.
		run, last := 0, byte(2)
		for _, b := range stuffed {
			if b == last {
				run++
			} else {
				run, last = 1, b
			}
			if run >= 6 {
				return false
			}
		}
		out, err := Destuff(stuffed)
		if err != nil || len(out) != len(bits) {
			return false
		}
		for i := range out {
			if out[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestStuffWorstCase(t *testing.T) {
	// 15 identical bits stuff into 15 + 3.
	bits := make([]byte, 15)
	got := Stuff(bits)
	if len(got) != 18 {
		t.Errorf("Stuff(15 zeros) len = %d, want 18", len(got))
	}
}

func TestDestuffRejectsLongRuns(t *testing.T) {
	bits := []byte{0, 0, 0, 0, 0, 0} // six dominant bits: form error
	if _, err := Destuff(bits); !errors.Is(err, ErrBadStuff) {
		t.Errorf("Destuff(6 zeros): got %v, want ErrBadStuff", err)
	}
}

func randomFrame(rng *rand.Rand) Frame {
	var f Frame
	if rng.Intn(4) == 0 {
		f.Extended = true
		f.ID = ID(rng.Uint32()) & MaxExtendedID
	} else {
		f.ID = ID(rng.Uint32()) & MaxStandardID
	}
	f.Remote = rng.Intn(8) == 0
	f.Len = uint8(rng.Intn(MaxDataLen + 1))
	if !f.Remote {
		for i := 0; i < int(f.Len); i++ {
			f.Data[i] = byte(rng.Uint32())
		}
	}
	return f
}

func TestMarshalBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		f := randomFrame(rng)
		wire := f.MarshalBits()
		g, err := UnmarshalBits(wire)
		if err != nil {
			t.Fatalf("frame %v: UnmarshalBits: %v", f, err)
		}
		if !f.Equal(g) {
			t.Fatalf("round trip mismatch: sent %+v got %+v", f, g)
		}
	}
}

func TestUnmarshalBitsDetectsCorruption(t *testing.T) {
	f := MustFrame(0x2A4, []byte{1, 2, 3, 4})
	wire := f.MarshalBits()
	// Flip each bit of the stuffed region and require an error or a
	// different decoded frame (arbitration/stuff/CRC must catch it).
	for i := 0; i < len(wire)-10; i++ {
		mut := make([]byte, len(wire))
		copy(mut, wire)
		mut[i] ^= 1
		g, err := UnmarshalBits(mut)
		if err == nil && g.Equal(f) {
			t.Errorf("flip of wire bit %d went undetected", i)
		}
	}
}

func TestBitLengthBounds(t *testing.T) {
	// A standard data frame with n data bytes has 47 + 8n unstuffed bits
	// (44 header/trailer + CRC15 within covered region...), and stuffing
	// can only add bits. Check documented bounds.
	for n := 0; n <= 8; n++ {
		data := make([]byte, n)
		f := MustFrame(0x555, data) // alternating ID: no stuffing in ID
		min := 44 + 8*n             // unstuffed standard data frame length
		got := f.BitLength()
		if got < min {
			t.Errorf("DLC %d: BitLength %d < minimum %d", n, got, min)
		}
		// Worst case stuffing adds at most one bit per four covered bits.
		covered := 34 + 8*n
		max := covered + covered/4 + 10
		if got > max {
			t.Errorf("DLC %d: BitLength %d > bound %d", n, got, max)
		}
	}
}

func TestBitLengthAllZeroIDStuffs(t *testing.T) {
	zero := MustFrame(0x000, []byte{0})
	alt := MustFrame(0x555, []byte{0x55})
	if zero.BitLength() <= alt.BitLength() {
		t.Errorf("all-dominant frame should stuff longer: %d vs %d",
			zero.BitLength(), alt.BitLength())
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		f := randomFrame(rng)
		buf, err := f.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary(%v): %v", f, err)
		}
		if len(buf) != f.WireSize() {
			t.Fatalf("WireSize %d != len %d", f.WireSize(), len(buf))
		}
		var g Frame
		if err := g.UnmarshalBinary(buf); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		// Data beyond Len is not carried; compare with Equal.
		if !f.Equal(g) {
			t.Fatalf("round trip mismatch: %+v vs %+v", f, g)
		}
	}
}

// TestFrameAppendBinary: AppendBinary is the encoding.BinaryAppender
// form of MarshalBinary — same bytes after whatever dst held, no
// allocation when dst has room, and dst untouched for an invalid frame.
func TestFrameAppendBinary(t *testing.T) {
	var _ encoding.BinaryAppender = Frame{}
	rng := rand.New(rand.NewSource(12))
	buf := make([]byte, 0, 2+MaxWireSize)
	for i := 0; i < 200; i++ {
		f := randomFrame(rng)
		want, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.AppendBinary(append(buf[:0], 0xAA, 0xBB))
		if err != nil || !bytes.Equal(got[:2], []byte{0xAA, 0xBB}) || !bytes.Equal(got[2:], want) {
			t.Fatalf("AppendBinary(%v) = %x, %v; want aabb%x", f, got, err, want)
		}
	}
	f := MustFrame(0x7FF, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if n := testing.AllocsPerRun(100, func() { buf, _ = f.AppendBinary(buf[:0]) }); n != 0 {
		t.Errorf("AppendBinary into a sized buffer: %v allocs, want 0", n)
	}
	bad := Frame{ID: MaxStandardID + 1}
	if got, err := bad.AppendBinary(buf[:1]); !errors.Is(err, ErrIDRange) || len(got) != 1 {
		t.Errorf("invalid frame: len %d, err %v; want dst unchanged and ErrIDRange", len(got), err)
	}
}

func TestUnmarshalBinaryErrors(t *testing.T) {
	var f Frame
	if err := f.UnmarshalBinary([]byte{1, 2}); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short buffer: got %v, want ErrShortFrame", err)
	}
	buf := []byte{0, 0, 0, 0, 0, 9} // DLC 9
	if err := f.UnmarshalBinary(buf); !errors.Is(err, ErrDataLen) {
		t.Errorf("bad DLC: got %v, want ErrDataLen", err)
	}
	buf = []byte{0, 0, 0, 0, 0, 4, 1, 2} // DLC 4 but 2 bytes
	if err := f.UnmarshalBinary(buf); !errors.Is(err, ErrShortFrame) {
		t.Errorf("truncated data: got %v, want ErrShortFrame", err)
	}
}

func TestArbitrationKeyOrdersByID(t *testing.T) {
	ids := []ID{0x000, 0x001, 0x010, 0x100, 0x3FF, 0x7FF}
	for i := 0; i < len(ids)-1; i++ {
		lo := Frame{ID: ids[i]}
		hi := Frame{ID: ids[i+1]}
		if lo.ArbitrationKey() >= hi.ArbitrationKey() {
			t.Errorf("key(%v) >= key(%v)", ids[i], ids[i+1])
		}
	}
}

func TestArbitrationKeyDataBeatsRemote(t *testing.T) {
	data := Frame{ID: 0x123}
	remote := Frame{ID: 0x123, Remote: true}
	if data.ArbitrationKey() >= remote.ArbitrationKey() {
		t.Error("data frame should win over remote frame with same ID")
	}
}

func TestArbitrationKeyStandardBeatsExtended(t *testing.T) {
	std := Frame{ID: 0x123}
	ext := Frame{ID: 0x123 << 18, Extended: true} // same 11-bit base
	if std.ArbitrationKey() >= ext.ArbitrationKey() {
		t.Error("standard frame should win over extended frame with same base")
	}
}

func TestArbitrationKeyMatchesWireOrder(t *testing.T) {
	// The arbitration key must order frames exactly as bitwise wire
	// arbitration would: compare the wire bits (unstuffed header) up to
	// the first difference; dominant (0) wins.
	rng := rand.New(rand.NewSource(3))
	wireWins := func(a, b Frame) bool { // true if a wins over b
		ab, bb := a.headerBits(), b.headerBits()
		n := len(ab)
		if len(bb) < n {
			n = len(bb)
		}
		for i := 0; i < n; i++ {
			if ab[i] != bb[i] {
				return ab[i] == 0
			}
		}
		return len(ab) <= len(bb)
	}
	for i := 0; i < 2000; i++ {
		a, b := randomFrame(rng), randomFrame(rng)
		// Skip pairs with identical arbitration fields: on a real bus
		// they collide and cause an error frame, not a winner.
		if a.ArbitrationKey() == b.ArbitrationKey() {
			continue
		}
		keyWins := a.ArbitrationKey() < b.ArbitrationKey()
		// Only compare while the arbitration field is being sent: the
		// key covers base ID, SRR/RTR, IDE, ext ID, RTR (and then DLC
		// differences are irrelevant to arbitration).
		if keyWins != wireWins(a, b) {
			t.Fatalf("key order disagrees with wire order: %+v vs %+v", a, b)
		}
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	prop := func(idRaw uint32, data []byte, ext, remote bool) bool {
		var f Frame
		f.Extended = ext
		if ext {
			f.ID = ID(idRaw) & MaxExtendedID
		} else {
			f.ID = ID(idRaw) & MaxStandardID
		}
		f.Remote = remote
		if len(data) > MaxDataLen {
			data = data[:MaxDataLen]
		}
		if remote {
			f.Len = uint8(len(data))
		} else if err := f.SetData(data); err != nil {
			return false
		}
		buf, err := f.MarshalBinary()
		if err != nil {
			return false
		}
		var g Frame
		if err := g.UnmarshalBinary(buf); err != nil {
			return false
		}
		return f.Equal(g)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStuffedBitLengthMatchesMarshalBits(t *testing.T) {
	// The arithmetic fast path must agree with the materialized wire
	// encoding for every frame shape: standard/extended, data/remote,
	// every DLC, and payloads engineered to maximize or break up stuff
	// runs.
	frames := []Frame{
		{},
		{ID: 0x000, Len: 8},
		{ID: 0x7FF, Len: 8, Data: [8]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
		{ID: 0x555, Len: 4, Data: [8]byte{0xAA, 0x55, 0xAA, 0x55}},
		{ID: 0x123, Remote: true},
		{ID: 0x1FFFFFFF, Extended: true, Len: 8},
		{ID: 0x00000000, Extended: true, Len: 8, Data: [8]byte{0, 0, 0, 0, 0, 0, 0, 0}},
		{ID: 0x15555555, Extended: true, Remote: true},
	}
	for dlc := 0; dlc <= 8; dlc++ {
		frames = append(frames, Frame{ID: 0x2A4, Len: uint8(dlc)})
	}
	for _, f := range frames {
		if got, want := f.StuffedBitLength(), len(f.MarshalBits()); got != want {
			t.Errorf("StuffedBitLength(%v) = %d, want %d", f, got, want)
		}
	}
}

func TestStuffedBitLengthQuick(t *testing.T) {
	prop := func(rawID uint32, extended, remote bool, dlc uint8, data [8]byte) bool {
		f := Frame{Extended: extended, Remote: remote, Len: dlc % 9, Data: data}
		if extended {
			f.ID = ID(rawID) & MaxExtendedID
		} else {
			f.ID = ID(rawID) & MaxStandardID
		}
		return f.StuffedBitLength() == len(f.MarshalBits())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestStuffedBitLengthAllocs(t *testing.T) {
	f := Frame{ID: 0x2A4, Len: 8, Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}}
	if n := testing.AllocsPerRun(100, func() { _ = f.BitLength() }); n != 0 {
		t.Errorf("BitLength allocates %v times per call, want 0", n)
	}
}
