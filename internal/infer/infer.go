// Package infer reconstructs malicious CAN identifiers from the per-bit
// entropy deviations reported by the bit-entropy detector — the second
// task of the paper's IDS.
//
// The inference rule follows Section V.C of the paper: if bit i's
// probability of being 1 moved in the negative direction, the injected
// identifier's bit i is probably 0, and vice versa. Each violated bit
// therefore yields a constraint (bit, value) weighted by the magnitude of
// the change (the "changing rate", which the paper adds for multi-ID
// attacks). Candidates from the legal ID pool that satisfy every
// constraint are ranked in ascending numeric order — preceding IDs win
// arbitration more easily and are a priori more likely to be the
// attacker's choice — and the first n (rank = 10 in the paper) form the
// candidate set. A detection counts as a hit when the true malicious ID
// is in the candidate set.
//
// For multi-ID attacks the observed deviation is a mixture, so strict
// constraint filtering can exclude true IDs whose bits are masked by the
// other injected IDs. When strict filtering yields fewer than n
// candidates, the remainder of the pool is ranked by a weighted
// agreement score and used to fill the set; accuracy therefore degrades
// gracefully as the number of injected IDs grows, matching the trend in
// the paper's Table I.
//
// Ranking runs against an Index: the legal pool sorted once, with each
// entry's identifier bits laid out as a 0/1 row. An Index is immutable
// and built once per response policy, so every lane and vehicle serving
// that policy shares it. Per alert, the hard constraints compile to one
// mask/value pair ((id^v)&m == 0), the agreement ranking is a top-n
// selection rather than a sort of the pool, and each greedy pick is one
// pass of table lookups over the pool rows — no candidate signature is
// rebuilt. A Scratch holds the per-alert working memory, so a warm
// ranking allocates nothing. Package-level Rank builds a throwaway index
// per call and returns exactly what the original full-sort algorithm
// did.
package infer

import (
	"errors"
	"fmt"
	"math"

	"canids/internal/can"
	"canids/internal/detect"
)

// DefaultRank is the paper's candidate set size.
const DefaultRank = 10

// Errors returned by Rank.
var (
	ErrEmptyPool = errors.New("infer: empty ID pool")
	ErrBadRank   = errors.New("infer: rank must be positive")
	ErrBadWidth  = errors.New("infer: identifier width must be >= 0")
	// ErrNonFinite rejects an alert carrying a NaN or infinite DeltaP or
	// TemplateP, and a ranking whose arithmetic overflowed: no
	// candidate's evidence is comparable then.
	ErrNonFinite = errors.New("infer: non-finite bit deviation")
)

// Constraint pins one identifier bit to a value, with a confidence
// weight derived from the observed probability shift.
type Constraint struct {
	// Bit is the 1-based MSB-first bit position.
	Bit int
	// Value is the inferred bit value (0 or 1).
	Value int
	// Weight is |ΔP| of the bit — the changing rate.
	Weight float64
}

// String implements fmt.Stringer.
func (c Constraint) String() string {
	return fmt.Sprintf("bit%d=%d(w=%.4f)", c.Bit, c.Value, c.Weight)
}

// DeriveConstraints extracts hard constraints from an alert's violated
// bits. Bits whose ΔP is negligible carry no direction information and
// are skipped even if their entropy moved (entropy is symmetric around
// p = 0.5, so a sign is required).
func DeriveConstraints(a detect.Alert) []Constraint {
	return appendConstraints(nil, a, true, 1e-9)
}

// SoftConstraints extracts direction evidence from every bit with a
// measurable probability shift, not only the violated ones. A sustained
// single-ID injection moves every identifier bit's probability in the
// direction of that ID's bit value, so the full ΔP vector — the
// "changing rate" analysis the paper adds for multi-ID attacks — usually
// pins the injected identifier almost uniquely.
func SoftConstraints(a detect.Alert, minDelta float64) []Constraint {
	if minDelta <= 0 {
		minDelta = 1e-4
	}
	return appendConstraints(nil, a, false, minDelta)
}

// appendConstraints appends one constraint per bit whose |ΔP| reaches
// minDelta (violated bits only, when violatedOnly), in alert order.
func appendConstraints(dst []Constraint, a detect.Alert, violatedOnly bool, minDelta float64) []Constraint {
	for _, b := range a.Bits {
		if (violatedOnly && !b.Violated) || math.Abs(b.DeltaP) < minDelta {
			continue
		}
		v := 0
		if b.DeltaP > 0 {
			v = 1
		}
		dst = append(dst, Constraint{Bit: b.Bit, Value: v, Weight: math.Abs(b.DeltaP)})
	}
	return dst
}

// Satisfies reports whether the identifier meets every constraint, for
// the given ID width. A constraint on a bit outside 1..width, or with a
// value other than 0 or 1, is never met.
func Satisfies(id can.ID, width int, cons []Constraint) bool {
	return compileHard(cons, width).ok(id)
}

// hard is a conjunction of bit constraints compiled to one mask/value
// pair over the identifier: id meets it iff (id^v)&m == 0.
type hard struct {
	m, v  uint32
	never bool // some constraint cannot be met by any identifier
}

func compileHard(cons []Constraint, width int) hard {
	var h hard
	for _, c := range cons {
		if c.Bit < 1 || c.Bit > width || (c.Value != 0 && c.Value != 1) {
			h.never = true
			continue
		}
		s := width - c.Bit
		if s >= 32 {
			// Beyond the 32-bit identifier: the bit reads 0.
			h.never = h.never || c.Value == 1
			continue
		}
		bit := uint32(1) << s
		val := uint32(c.Value) << s
		if h.m&bit != 0 && h.v&bit != val {
			h.never = true // the same bit pinned both ways
		}
		h.m |= bit
		h.v |= val
	}
	return h
}

func (h hard) ok(id can.ID) bool { return !h.never && (uint32(id)^h.v)&h.m == 0 }

// Score rates how well an identifier explains the observed deviations:
// the weighted sum of per-constraint agreements (+w if the ID's bit
// matches the constraint, −w otherwise). Higher is better.
func Score(id can.ID, width int, cons []Constraint) float64 {
	s := 0.0
	for _, c := range cons {
		if c.Bit < 1 || c.Bit > width {
			continue
		}
		if id.Bit(c.Bit, width) == c.Value {
			s += c.Weight
		} else {
			s -= c.Weight
		}
	}
	return s
}

// Result is a ranked candidate set for one alert.
type Result struct {
	// Candidates is the rank-n candidate set, most likely first.
	Candidates []can.ID
	// Constraints are the derived hard bit constraints.
	Constraints []Constraint
	// Strict is how many candidates satisfy every hard constraint.
	Strict int
}

// Hit reports whether the true malicious ID is in the candidate set.
func (r Result) Hit(target can.ID) bool {
	for _, id := range r.Candidates {
		if id == target {
			return true
		}
	}
	return false
}

// HitCount returns how many of the given true IDs are in the candidate
// set (multi-ID attacks are scored per injected ID).
func (r Result) HitCount(targets []can.ID) int {
	n := 0
	for _, t := range targets {
		if r.Hit(t) {
			n++
		}
	}
	return n
}

// Rank builds the rank-n candidate set for an alert against the legal ID
// pool. width is the identifier width in bits (11 for CAN 2.0A).
//
// Candidates are ordered by two keys:
//
//  1. whether the ID satisfies every hard (violated-bit) constraint —
//     the paper's selection rule;
//  2. the weighted agreement of the ID's full bit vector with the soft
//     ΔP evidence — the paper's "changing rate" refinement, with
//     ascending numeric ID (arbitration priority) breaking ties.
//
// Rank indexes the pool on every call: it is for one-off rankings.
// Callers ranking many alerts against one pool hold an Index and a
// Scratch instead.
func Rank(a detect.Alert, pool []can.ID, width, n int) (Result, error) {
	ix, err := NewIndex(pool, width)
	if err != nil {
		return Result{}, err
	}
	return ix.Rank(new(Scratch), a, n)
}
