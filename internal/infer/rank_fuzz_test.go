package infer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/engine/scenario"
	"canids/internal/vehicle"
)

// catalogue is the fusion pool and the bit-entropy alerts of every
// fusion attack scenario in the catalogue, simulated once per test
// binary.
var catalogue struct {
	once   sync.Once
	pool   []can.ID
	alerts []detect.Alert
	err    error
}

func catalogueAlerts(tb testing.TB) ([]can.ID, []detect.Alert) {
	tb.Helper()
	catalogue.once.Do(func() {
		specs := scenario.Matrix(1)
		cfg := core.DefaultConfig()
		tmpl, err := scenario.Train(specs, "fusion", cfg)
		if err != nil {
			catalogue.err = err
			return
		}
		for _, s := range specs {
			if s.Profile != "fusion" || s.Clean() {
				continue
			}
			if catalogue.pool == nil {
				catalogue.pool = vehicle.NewFusionProfile(s.ProfileSeed).IDSet()
			}
			tr, err := s.Run()
			if err != nil {
				catalogue.err = err
				return
			}
			d := core.MustNew(cfg)
			if err := d.SetTemplate(tmpl); err != nil {
				catalogue.err = err
				return
			}
			for _, r := range tr {
				catalogue.alerts = append(catalogue.alerts, d.Observe(r)...)
			}
			catalogue.alerts = append(catalogue.alerts, d.Flush()...)
		}
	})
	if catalogue.err != nil {
		tb.Fatalf("catalogue: %v", catalogue.err)
	}
	if len(catalogue.alerts) == 0 {
		tb.Fatal("catalogue raised no alerts")
	}
	return catalogue.pool, catalogue.alerts
}

// TestRankMatchesReferenceOnCatalogue: on every catalogue alert, at every
// rank up to past the paper's, the indexed Rank returns exactly what the
// original full-sort algorithm did — through the package-level Rank and
// through one reused Index and Scratch.
func TestRankMatchesReferenceOnCatalogue(t *testing.T) {
	pool, alerts := catalogueAlerts(t)
	ix, err := NewIndex(pool, can.StandardIDBits)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for i, a := range alerts {
		for _, n := range []int{1, 2, 3, 5, 10, 20} {
			want, err := refRank(a, pool, can.StandardIDBits, n)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Rank(a, pool, can.StandardIDBits, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("alert %d rank %d: Rank = %+v, reference %+v", i, n, got, want)
			}
			got, err = ix.Rank(&s, a, n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Candidates, want.Candidates) || got.Strict != want.Strict ||
				!reflect.DeepEqual(got.Constraints, want.Constraints) {
				t.Fatalf("alert %d rank %d: Index.Rank = %+v, reference %+v", i, n, got, want)
			}
		}
	}
}

// TestRankNonFinite: a NaN or infinite DeltaP/TemplateP is an
// ErrNonFinite error, not a panic (the original greedy pass indexed -1
// when every dot product was NaN).
func TestRankNonFinite(t *testing.T) {
	pool := []can.ID{0x0B5, 0x171, 0x3B3}
	for _, tc := range []struct {
		name string
		mut  func(*detect.BitDeviation)
	}{
		{"nan delta", func(b *detect.BitDeviation) { b.DeltaP = math.NaN() }},
		{"inf delta", func(b *detect.BitDeviation) { b.DeltaP = math.Inf(1) }},
		{"nan template", func(b *detect.BitDeviation) { b.TemplateP = math.NaN() }},
		{"-inf template", func(b *detect.BitDeviation) { b.TemplateP = math.Inf(-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := alertFor(0x0B5, []int{1, 4}, 0.05)
			tc.mut(&a.Bits[3])
			if !refPanics(a, pool, 11, 3) {
				t.Error("the original algorithm no longer panics here; the case tests nothing")
			}
			if _, err := Rank(a, pool, 11, 3); !errors.Is(err, ErrNonFinite) {
				t.Errorf("Rank error = %v, want ErrNonFinite", err)
			}
		})
	}
}

func refPanics(a detect.Alert, pool []can.ID, width, n int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	refRank(a, pool, width, n) //nolint:errcheck // only the panic matters
	return false
}

// FuzzRank holds Rank to the original algorithm (rank_ref_test.go):
// same candidates, constraints, strict count and error on every finite
// input, and ErrNonFinite — never a panic — on any NaN or infinite
// deviation. Pools carry duplicate and out-of-width identifiers, the
// rank runs from 0 to past the pool size, bits repeat and fall outside
// 1..width, and deltas span zero, tiny, subnormal and non-finite values.
func FuzzRank(f *testing.F) {
	pool, alerts := catalogueAlerts(f)
	poolBytes := encodePool(pool)
	for i, a := range alerts {
		if i%4 != 0 {
			continue
		}
		f.Add(poolBytes, encodeBits(a), uint8(can.StandardIDBits), uint16(DefaultRank))
	}
	dup := encodePool([]can.ID{0x100, 0x0B5, 0x100, 0x7FF, 0x8B5, 0x0B5})
	f.Add(dup, encodeBits(alertFor(0x0B5, []int{1, 2, 11}, 0.05)), uint8(11), uint16(9))
	f.Add(dup, []byte{12, 1<<1 | 7<<4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(11), uint16(3))
	f.Fuzz(func(t *testing.T, poolRaw, bitsRaw []byte, widthRaw uint8, nRaw uint16) {
		pool := decodePool(poolRaw)
		a, finiteIn := decodeBits(bitsRaw)
		width := int(widthRaw % 33)
		n := int(nRaw) % (len(pool) + 6)

		want, refErr, panicked := refOutcome(a, pool, width, n)
		got, err := Rank(a, pool, width, n)
		switch {
		case refErr != nil:
			if err == nil || err.Error() != refErr.Error() {
				t.Fatalf("error = %v, reference %v", err, refErr)
			}
		case !finiteIn:
			if !errors.Is(err, ErrNonFinite) {
				t.Fatalf("non-finite alert: error = %v (reference panicked: %v)", err, panicked)
			}
		case panicked:
			t.Fatalf("reference panicked on a finite alert %+v", a)
		case err != nil:
			t.Fatalf("Rank error %v, reference none", err)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("Rank = %+v\nreference %+v", got, want)
		}
	})
}

func refOutcome(a detect.Alert, pool []can.ID, width, n int) (res Result, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	res, err = refRank(a, pool, width, n)
	return res, err, false
}

// The fuzz encoding: a pool is little-endian uint16 identifiers (up to
// 512); an alert is up to 40 records of 18 bytes — bit position (byte
// %16 − 2, so positions fall outside 1..11 and repeat), flags (bit 0:
// Violated; bits 1-3: DeltaP class; bits 4-6: TemplateP class), then
// DeltaP and TemplateP as little-endian float64 bits.
const bitRecord = 18

func encodePool(pool []can.ID) []byte {
	out := make([]byte, 0, 2*len(pool))
	for _, id := range pool {
		out = binary.LittleEndian.AppendUint16(out, uint16(id))
	}
	return out
}

func decodePool(raw []byte) []can.ID {
	var pool []can.ID
	for i := 0; i+2 <= len(raw) && len(pool) < 512; i += 2 {
		pool = append(pool, can.ID(binary.LittleEndian.Uint16(raw[i:])))
	}
	return pool
}

// encodeBits encodes an alert's deviations in the raw class, which
// carries every value of magnitude <= 2 through unchanged.
func encodeBits(a detect.Alert) []byte {
	var out []byte
	for _, b := range a.Bits {
		if b.Bit < -2 || b.Bit > 13 {
			panic(fmt.Sprintf("bit %d outside the fuzz encoding", b.Bit))
		}
		flags := byte(0)
		if b.Violated {
			flags = 1
		}
		out = append(out, byte(b.Bit+2), flags)
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(b.DeltaP))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(b.TemplateP))
	}
	return out
}

// decodeBits decodes an alert and reports whether all its values are
// finite.
func decodeBits(raw []byte) (detect.Alert, bool) {
	var a detect.Alert
	fin := true
	for i := 0; i+bitRecord <= len(raw) && len(a.Bits) < 40; i += bitRecord {
		r := raw[i : i+bitRecord]
		d := decodeFloat(r[1]>>1&7, binary.LittleEndian.Uint64(r[2:]))
		p := decodeFloat(r[1]>>4&7, binary.LittleEndian.Uint64(r[10:]))
		fin = fin && finite(d) && finite(p)
		a.Bits = append(a.Bits, detect.BitDeviation{
			Bit: int(r[0]%16) - 2, Violated: r[1]&1 != 0, DeltaP: d, TemplateP: p,
		})
	}
	return a, fin
}

// decodeFloat maps 64 fuzz bits to a value of the given class. Finite
// values stay within ±2, so no sum can overflow.
func decodeFloat(class byte, u uint64) float64 {
	switch class {
	case 4: // signed zero
		return math.Float64frombits(u & (1 << 63))
	case 5: // tiny: straddles the 1e-9 and 1e-4 constraint floors
		return float64(int32(u)) * 1e-13
	case 6: // subnormal
		return math.Float64frombits(u & 0x800F_FFFF_FFFF_FFFF)
	case 7:
		return [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[u%3]
	}
	if x := math.Float64frombits(u); finite(x) && math.Abs(x) <= 2 {
		return x
	}
	return float64(int32(u)) / (1 << 30)
}
