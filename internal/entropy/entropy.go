// Package entropy implements the information-theoretic primitives of the
// paper: per-bit Bernoulli ("binary") entropy over CAN identifier bits,
// maintained by constant-memory bit-slice counters, plus the
// message-level Shannon entropy used by the Müter & Asaj baseline.
//
// The paper's key cost argument is embodied in BitCounter: regardless of
// how many distinct identifiers appear on the bus, the detector state is
// one counter per identifier bit (11 for CAN 2.0A), while message-level
// entropy needs a count per distinct identifier.
package entropy

import (
	"fmt"
	"math"
	"sort"

	"canids/internal/can"
)

// The Binary lookup table: H(p) sampled at 2^binaryLUTBits+1 uniform
// nodes over [0,1], evaluated by linear interpolation. H” = -1/(p(1-p)ln2)
// is bounded by ~30.4 on [binaryLUTLo, binaryLUTHi], so the interpolation
// error is at most |H”|·dx²/8 ≈ 8.9e-10 < binaryLUTMaxErr there. Outside
// that band the curvature blows up and Binary falls back to the exact
// two-log form (constant bits have p at or near 0/1 and mostly hit the
// p<=0 / p>=1 early-out anyway).
const (
	binaryLUTBits   = 16
	binaryLUTSize   = 1 << binaryLUTBits
	binaryLUTLo     = 0.05
	binaryLUTHi     = 1 - binaryLUTLo
	binaryLUTMaxErr = 1e-9
)

var binaryLUT = func() *[binaryLUTSize + 1]float64 {
	var t [binaryLUTSize + 1]float64
	for i := range t {
		t[i] = BinaryExact(float64(i) / binaryLUTSize)
	}
	return &t
}()

// Binary returns the entropy in bits (shannons) of a Bernoulli variable
// with success probability p: H(p) = -p·log2(p) - (1-p)·log2(1-p).
// By the usual convention 0·log2(0) = 0, so Binary(0) = Binary(1) = 0.
// Inputs outside [0,1] are clamped.
//
// Mid-range inputs are served from a quantized lookup table with linear
// interpolation, replacing the two math.Log2 calls the detector would
// otherwise pay per bit per window; inputs near 0 or 1, where the
// curvature exceeds the table's resolution, fall back to BinaryExact.
// The result is always within binaryLUTMaxErr (1e-9) of BinaryExact, and
// exact at table nodes (including Binary(0.5) == 1).
func Binary(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	if p < binaryLUTLo || p > binaryLUTHi {
		return BinaryExact(p)
	}
	x := p * binaryLUTSize
	i := int(x)
	frac := x - float64(i)
	return binaryLUT[i] + frac*(binaryLUT[i+1]-binaryLUT[i])
}

// BinaryExact is the direct two-logarithm evaluation of H(p), kept as
// the reference implementation for the lookup table's accuracy tests and
// for its exact-fallback band.
func BinaryExact(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// BitCounter accumulates, for each identifier bit position, the number of
// observed frames in which that bit was 1. It is the constant-memory
// detector state: width counters plus a total, independent of how many
// distinct identifiers exist.
//
// Bit positions follow the paper's 1-based MSB-first convention.
type BitCounter struct {
	width int
	total uint64
	ones  []uint64
}

// NewBitCounter creates a counter for identifiers of the given bit width
// (can.StandardIDBits or can.ExtendedIDBits; any width in [1,32] works).
func NewBitCounter(width int) (*BitCounter, error) {
	if width < 1 || width > 32 {
		return nil, fmt.Errorf("entropy: invalid ID width %d", width)
	}
	return &BitCounter{width: width, ones: make([]uint64, width)}, nil
}

// MustBitCounter is NewBitCounter that panics on error, for static
// configuration.
func MustBitCounter(width int) *BitCounter {
	c, err := NewBitCounter(width)
	if err != nil {
		panic(err)
	}
	return c
}

// Width returns the identifier width in bits.
func (c *BitCounter) Width() int { return c.width }

// Total returns the number of identifiers observed.
func (c *BitCounter) Total() uint64 { return c.total }

// Add folds one identifier into the counter. It runs in O(width) with
// no allocation — the constant per-message cost behind the paper's
// lightweight-detection argument.
//
// Add and Remove share the same LSB-first walk (descending slice index,
// one shift per iteration): ones[i] tracks identifier bit width-i in the
// paper's 1-based MSB-first numbering, and bits above the counter width
// are ignored by both directions alike.
func (c *BitCounter) Add(id can.ID) {
	c.total++
	v := uint32(id)
	ones := c.ones
	for i := len(ones) - 1; i >= 0; i-- {
		ones[i] += uint64(v & 1)
		v >>= 1
	}
}

// Remove subtracts one identifier, enabling sliding-window maintenance.
// Removing more identifiers than were added panics (programming error).
// It mirrors Add's loop exactly, so Add followed by Remove of the same
// identifier restores every counter.
func (c *BitCounter) Remove(id can.ID) {
	if c.total == 0 {
		panic("entropy: Remove on empty BitCounter")
	}
	c.total--
	v := uint32(id)
	ones := c.ones
	for i := len(ones) - 1; i >= 0; i-- {
		bit := uint64(v & 1)
		if bit > ones[i] {
			panic("entropy: Remove of identifier never added")
		}
		ones[i] -= bit
		v >>= 1
	}
}

// Reset clears the counter.
func (c *BitCounter) Reset() {
	c.total = 0
	for i := range c.ones {
		c.ones[i] = 0
	}
}

// P returns p_i, the empirical probability that bit i (1-based, MSB
// first) is 1. With no observations it returns 0.
func (c *BitCounter) P(i int) float64 {
	if i < 1 || i > c.width {
		panic(fmt.Sprintf("entropy: bit index %d out of range [1,%d]", i, c.width))
	}
	if c.total == 0 {
		return 0
	}
	return float64(c.ones[i-1]) / float64(c.total)
}

// Probabilities returns the vector p_1..p_width.
func (c *BitCounter) Probabilities() []float64 {
	return c.ProbabilitiesInto(make([]float64, c.width))
}

// ProbabilitiesInto fills p (which must have length width) with the
// vector p_1..p_width and returns it. It allocates nothing — the
// detector's steady-state window scoring path.
func (c *BitCounter) ProbabilitiesInto(p []float64) []float64 {
	if len(p) != c.width {
		panic(fmt.Sprintf("entropy: ProbabilitiesInto len %d, width %d", len(p), c.width))
	}
	if c.total == 0 {
		for i := range p {
			p[i] = 0
		}
		return p
	}
	// Divide per element (not multiply-by-inverse): this must round
	// identically to P(i) so cached and freshly computed vectors match
	// bit for bit.
	t := float64(c.total)
	for i := range p {
		p[i] = float64(c.ones[i]) / t
	}
	return p
}

// Entropies returns the per-bit binary entropy vector
// Ĥ = {H(p_1), ..., H(p_width)}.
func (c *BitCounter) Entropies() []float64 {
	return c.EntropiesInto(make([]float64, c.width))
}

// EntropiesInto fills h (which must have length width) with the per-bit
// binary entropy vector and returns it, allocating nothing.
func (c *BitCounter) EntropiesInto(h []float64) []float64 {
	c.ProbabilitiesInto(h)
	for i, p := range h {
		h[i] = Binary(p)
	}
	return h
}

// MeasureInto fills h and p (each of length width) with the entropy and
// probability vectors in one fused pass — each p_i is computed once and
// feeds both outputs. This is the zero-allocation primitive behind
// window scoring in the detectors.
func (c *BitCounter) MeasureInto(h, p []float64) {
	c.ProbabilitiesInto(p)
	if len(h) != c.width {
		panic(fmt.Sprintf("entropy: MeasureInto len %d, width %d", len(h), c.width))
	}
	for i, pi := range p {
		h[i] = Binary(pi)
	}
}

// Merge folds another counter's observations into c, as if every
// identifier added to o had been added to c instead. Widths must match.
// Because the counts are integers, a counter assembled by merging
// partial counters measures bit-for-bit the same probabilities and
// entropies as one counter fed the union stream.
func (c *BitCounter) Merge(o *BitCounter) {
	if c.width != o.width {
		panic(fmt.Sprintf("entropy: Merge width %d into %d", o.width, c.width))
	}
	c.total += o.total
	for i, n := range o.ones {
		c.ones[i] += n
	}
}

// Clone returns an independent copy of the counter.
func (c *BitCounter) Clone() *BitCounter {
	ones := make([]uint64, len(c.ones))
	copy(ones, c.ones)
	return &BitCounter{width: c.width, total: c.total, ones: ones}
}

// StateBytes returns the memory footprint of the counter state in bytes
// — the paper's storage-cost metric (width+1 64-bit slots).
func (c *BitCounter) StateBytes() int { return 8 * (len(c.ones) + 1) }

// Shannon returns the Shannon entropy in bits of a discrete distribution
// given as occurrence counts. Zero counts are ignored. This is the
// message-level entropy of Müter & Asaj's detector, which must maintain
// one count per distinct symbol (identifier).
//
// The summation runs over the counts in sorted order, not map order:
// float addition is not associative, so summing in Go's randomized map
// iteration order would make the result differ in its last bits from
// run to run — enough to break the repository's bit-identical
// reproducibility contract (the entropy depends only on the count
// multiset, so any canonical order gives one deterministic value).
func Shannon[K comparable](counts map[K]int) float64 {
	total := 0
	ns := make([]int, 0, len(counts))
	for _, n := range counts {
		if n < 0 {
			panic("entropy: negative count")
		}
		if n == 0 {
			continue
		}
		total += n
		ns = append(ns, n)
	}
	if total == 0 {
		return 0
	}
	sort.Ints(ns)
	h := 0.0
	for _, n := range ns {
		p := float64(n) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// MaxShannon returns the maximum possible Shannon entropy for k distinct
// symbols, log2(k).
func MaxShannon(k int) float64 {
	if k <= 1 {
		return 0
	}
	return math.Log2(float64(k))
}
