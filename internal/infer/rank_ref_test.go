package infer

// This file keeps the original Rank — a sort of the whole pool and a
// greedy pass that rebuilds every candidate's signature per pick — as
// the reference the indexed ranking is held to, bit for bit, by FuzzRank
// and the golden experiment tests.

import (
	"fmt"
	"math"
	"sort"

	"canids/internal/can"
	"canids/internal/detect"
)

// refDeriveConstraints extracts hard constraints from an alert's violated
// bits. Bits whose ΔP is negligible carry no direction information and
// are skipped even if their entropy moved (entropy is symmetric around
// p = 0.5, so a sign is required).
func refDeriveConstraints(a detect.Alert) []Constraint {
	const minDelta = 1e-9
	var out []Constraint
	for _, b := range a.Bits {
		if !b.Violated || math.Abs(b.DeltaP) < minDelta {
			continue
		}
		v := 0
		if b.DeltaP > 0 {
			v = 1
		}
		out = append(out, Constraint{Bit: b.Bit, Value: v, Weight: math.Abs(b.DeltaP)})
	}
	return out
}

// refSoftConstraints extracts direction evidence from every bit with a
// measurable probability shift, not only the violated ones. A sustained
// single-ID injection moves every identifier bit's probability in the
// direction of that ID's bit value, so the full ΔP vector — the
// "changing rate" analysis the paper adds for multi-ID attacks — usually
// pins the injected identifier almost uniquely.
func refSoftConstraints(a detect.Alert, minDelta float64) []Constraint {
	if minDelta <= 0 {
		minDelta = 1e-4
	}
	var out []Constraint
	for _, b := range a.Bits {
		if math.Abs(b.DeltaP) < minDelta {
			continue
		}
		v := 0
		if b.DeltaP > 0 {
			v = 1
		}
		out = append(out, Constraint{Bit: b.Bit, Value: v, Weight: math.Abs(b.DeltaP)})
	}
	return out
}

// refSatisfies reports whether the identifier meets every constraint, for
// the given ID width.
func refSatisfies(id can.ID, width int, cons []Constraint) bool {
	for _, c := range cons {
		if c.Bit < 1 || c.Bit > width {
			return false
		}
		if id.Bit(c.Bit, width) != c.Value {
			return false
		}
	}
	return true
}

// refScore rates how well an identifier explains the observed deviations:
// the weighted sum of per-constraint agreements (+w if the ID's bit
// matches the constraint, −w otherwise). Higher is better.
func refScore(id can.ID, width int, cons []Constraint) float64 {
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

// refRank is the original Rank: it builds the rank-n candidate set for
// an alert against the legal ID pool. width is the identifier width in bits (11 for CAN 2.0A).
//
// Candidates are ordered by two keys:
//
//  1. whether the ID satisfies every hard (violated-bit) constraint —
//     the paper's selection rule;
//  2. the weighted agreement of the ID's full bit vector with the soft
//     ΔP evidence — the paper's "changing rate" refinement, with
//     ascending numeric ID (arbitration priority) breaking ties.
func refRank(a detect.Alert, pool []can.ID, width, n int) (Result, error) {
	if len(pool) == 0 {
		return Result{}, ErrEmptyPool
	}
	if n <= 0 {
		return Result{}, fmt.Errorf("%w: %d", ErrBadRank, n)
	}
	cons := refDeriveConstraints(a)
	soft := refSoftConstraints(a, 0)

	// Two complementary orderings are interleaved into the candidate
	// set:
	//
	//  1. Agreement ranking — identifiers sorted by how well their full
	//     bit vector agrees with the per-bit ΔP directions, hard
	//     (violated-bit) constraint satisfaction first, ascending ID as
	//     the final tiebreak. This is the paper's constraint-based rank
	//     selection and is nearly exact for single-ID and weak attacks.
	//
	//  2. Greedy residual ranking — the shift is modelled as a
	//     superposition Δp_i ≈ Σ_j ε_j(x_ji − p_i); picks are made one
	//     at a time, each time subtracting the least-squares
	//     contribution of the picked ID from the residual. This is the
	//     paper's "direction and changing rate" refinement and recovers
	//     the separate components of multi-ID mixtures that the
	//     agreement ranking blurs together.
	byScore := refScoreOrder(pool, width, cons, soft)
	byGreedy := refGreedyOrder(a, pool, width, n)

	// The agreement ranking fills most of the candidate set; the last
	// ~third comes from the greedy residual list, which contributes the
	// mixture components agreement ranking tends to blur together.
	greedySlots := n / 3
	res := Result{Constraints: cons}
	seen := make(map[can.ID]bool, n)
	take := func(id can.ID) {
		if seen[id] || len(res.Candidates) >= n {
			return
		}
		seen[id] = true
		res.Candidates = append(res.Candidates, id)
		if refSatisfies(id, width, cons) {
			res.Strict++
		}
	}
	for si := 0; si < len(byScore) && len(res.Candidates) < n-greedySlots; si++ {
		take(byScore[si])
	}
	for gi := 0; gi < len(byGreedy) && len(res.Candidates) < n; gi++ {
		take(byGreedy[gi])
	}
	for si := 0; si < len(byScore) && len(res.Candidates) < n; si++ {
		take(byScore[si])
	}
	return res, nil
}

// scoreOrder ranks the pool by hard-constraint satisfaction, then soft
// agreement score, then ascending identifier.
func refScoreOrder(pool []can.ID, width int, cons, soft []Constraint) []can.ID {
	type row struct {
		id     can.ID
		strict bool
		s      float64
	}
	rows := make([]row, 0, len(pool))
	for _, id := range pool {
		rows = append(rows, row{id, refSatisfies(id, width, cons), refScore(id, width, soft)})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].strict != rows[j].strict {
			return rows[i].strict
		}
		if rows[i].s != rows[j].s {
			return rows[i].s > rows[j].s
		}
		return rows[i].id < rows[j].id
	})
	out := make([]can.ID, len(rows))
	for i, r := range rows {
		out[i] = r.id
	}
	return out
}

// greedyOrder ranks up to n pool identifiers by iterative residual
// subtraction.
func refGreedyOrder(a detect.Alert, pool []can.ID, width, n int) []can.ID {
	residual := make([]float64, width)
	templateP := make([]float64, width)
	for _, b := range a.Bits {
		if b.Bit >= 1 && b.Bit <= width {
			residual[b.Bit-1] = b.DeltaP
			templateP[b.Bit-1] = b.TemplateP
		}
	}
	// signatureInto fills g with the candidate's centered bit vector.
	// The scratch buffer is shared across the whole ranking — the inner
	// pick loop evaluates every remaining candidate against the
	// residual, and allocating a fresh vector per candidate dominated
	// the cost of inference.
	g := make([]float64, width)
	signatureInto := func(id can.ID) {
		for i := 1; i <= width; i++ {
			g[i-1] = float64(id.Bit(i, width)) - templateP[i-1]
		}
	}
	remaining := make([]can.ID, len(pool))
	copy(remaining, pool)
	sort.Slice(remaining, func(i, j int) bool { return remaining[i] < remaining[j] })

	var out []can.ID
	for len(out) < n && len(remaining) > 0 {
		bestIdx := -1
		bestDot := math.Inf(-1)
		for idx, id := range remaining {
			signatureInto(id)
			dot := 0.0
			for i := range g {
				dot += residual[i] * g[i]
			}
			// Strict inequality keeps ties resolved toward the lowest
			// (highest arbitration priority) identifier.
			if dot > bestDot {
				bestDot = dot
				bestIdx = idx
			}
		}
		id := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		out = append(out, id)
		signatureInto(id)
		var num, den float64
		for i := range g {
			num += residual[i] * g[i]
			den += g[i] * g[i]
		}
		if den > 0 {
			eps := num / den
			if eps < 0 {
				eps = 0
			}
			// Cap the subtraction step at a realistic single-ID
			// injection fraction. A full least-squares step lets one
			// "averaged" identifier absorb a whole multi-ID mixture,
			// hiding the true components from later picks; a small step
			// keeps each component visible until something close to it
			// has been picked.
			if eps > 0.08 {
				eps = 0.08
			}
			for i := range g {
				residual[i] -= eps * g[i]
			}
		}
	}
	return out
}
