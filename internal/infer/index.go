package infer

import (
	"fmt"
	"math"
	"slices"

	"canids/internal/can"
	"canids/internal/detect"
)

// Index is the immutable inference view of one legal identifier pool at
// one identifier width: the pool sorted ascending (duplicates kept — the
// greedy ranking may pick an identifier once per occurrence), each entry
// doubling as its own bit mask, and the shift that reads each bit
// position out of it. Any number of goroutines may rank against one
// Index at once, each with its own Scratch.
type Index struct {
	width  int
	src    []can.ID // the pool as given, for Matches
	sorted []can.ID
	// shift[i] reads bit i+1 (MSB first): bit = uint64(id)>>shift[i]&1.
	// A position beyond the 32-bit identifier reads bit 63, which is 0,
	// exactly as can.ID.Bit does.
	shift []uint8
}

// NewIndex indexes a legal identifier pool for the given width.
func NewIndex(pool []can.ID, width int) (*Index, error) {
	if len(pool) == 0 {
		return nil, ErrEmptyPool
	}
	if width < 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadWidth, width)
	}
	ix := &Index{width: width, src: slices.Clone(pool), sorted: slices.Clone(pool), shift: make([]uint8, width)}
	slices.Sort(ix.sorted)
	for i := range ix.shift {
		ix.shift[i] = uint8(min(width-1-i, 63))
	}
	return ix, nil
}

// bit returns the identifier bit a shift from Index.shift reads.
func bit(id can.ID, shift uint8) uint64 { return uint64(id) >> (shift & 63) & 1 }

// Matches reports whether the index was built from exactly this pool,
// in this order, at this width — whether a policy naming them may keep
// it.
func (ix *Index) Matches(pool []can.ID, width int) bool {
	return ix.width == width && slices.Equal(ix.src, pool)
}

// Scratch is the working memory of one ranking goroutine. The zero value
// is ready; it grows to the largest pool and rank it has served, after
// which ranking allocates nothing.
type Scratch struct {
	cons, soft []Constraint
	shift      []uint8      // the bits a row sum reads, in term order
	tab        [][2]float64 // tab[j][b]: term j when its bit is b
	sums       []float64    // one per index row
	pre        []float64    // sumRows: partial sums of the leading terms
	top        []scored     // the agreement ranking's head
	cands      []can.ID
	picked     []bool // greedy: rows already picked
	residual   []float64
	tp         []float64
}

// scored is one identifier's agreement-ranking key.
type scored struct {
	id     can.ID
	strict bool
	s      float64
}

// better is the agreement order: hard-constraint satisfaction first, then
// the higher soft score. Equal keys keep their (ascending-ID) order.
func (a scored) better(b scored) bool {
	if a.strict != b.strict {
		return a.strict
	}
	return a.s > b.s
}

// Rank builds the rank-n candidate set for an alert, exactly as the
// package-level Rank does for the indexed pool and width. The Result's
// slices are s's own and stay valid until s ranks again.
//
// Rank's fill loops read only the head of the agreement ranking, so it
// keeps the best n distinct identifiers rather than sorting the pool;
// the greedy residual picks are made lazily, as the fill needs them.
// Every sum adds the same terms in the same order as the full
// algorithm, so the candidates match it bit for bit.
func (ix *Index) Rank(s *Scratch, a detect.Alert, n int) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("%w: %d", ErrBadRank, n)
	}
	for _, b := range a.Bits {
		if !finite(b.DeltaP) || !finite(b.TemplateP) {
			return Result{}, fmt.Errorf("%w: bit %d", ErrNonFinite, b.Bit)
		}
	}
	// Size the scratch once, so a cold one grows by one allocation each.
	s.cons = appendConstraints(slices.Grow(s.cons[:0], len(a.Bits)), a, true, 1e-9)
	s.soft = appendConstraints(slices.Grow(s.soft[:0], len(a.Bits)), a, false, 1e-4)
	s.shift = slices.Grow(s.shift[:0], max(len(s.soft), ix.width))
	s.tab = slices.Grow(s.tab[:0], max(len(s.soft), ix.width))
	s.top = slices.Grow(s.top[:0], min(n, len(ix.sorted)))
	s.cands = slices.Grow(s.cands[:0], min(n, len(ix.sorted)))
	h := compileHard(s.cons, ix.width)
	top := ix.agreementHead(s, h, n)

	// The agreement ranking fills most of the candidate set; the last
	// ~third comes from the greedy residual list, which contributes the
	// mixture components agreement ranking tends to blur together.
	cands, strict := s.cands[:0], 0
	take := func(id can.ID) {
		if len(cands) < n && !slices.Contains(cands, id) {
			cands = append(cands, id)
			if h.ok(id) {
				strict++
			}
		}
	}
	for si := 0; si < len(top) && len(cands) < n-n/3; si++ {
		take(top[si].id)
	}
	if len(cands) < n {
		ix.greedyStart(s, a)
		for gi := 0; gi < min(n, len(ix.sorted)) && len(cands) < n; gi++ {
			id, ok := ix.greedyNext(s)
			if !ok {
				return Result{}, fmt.Errorf("%w: greedy residual overflowed", ErrNonFinite)
			}
			take(id)
		}
	}
	for si := 0; si < len(top) && len(cands) < n; si++ {
		take(top[si].id)
	}
	s.cands = cands
	res := Result{Candidates: cands, Strict: strict}
	if len(s.cons) > 0 {
		res.Constraints = s.cons // nil when none, as DeriveConstraints
	}
	return res, nil
}

// agreementHead returns the first min(n, distinct) identifiers of the
// agreement ranking: hard-constraint satisfaction, then the soft
// agreement score, then ascending identifier. Duplicate pool entries
// share one key and sit together in that order, so they collapse to
// one.
func (ix *Index) agreementHead(s *Scratch, h hard, n int) []scored {
	w := ix.width
	s.shift, s.tab = s.shift[:0], s.tab[:0]
	for _, c := range s.soft {
		if c.Bit < 1 || c.Bit > w {
			continue
		}
		// Score adds +Weight when the bit agrees, −Weight otherwise;
		// adding the negation is the same subtraction.
		agree, disagree := c.Weight, -c.Weight
		if c.Value == 0 {
			s.tab = append(s.tab, [2]float64{agree, disagree})
		} else {
			s.tab = append(s.tab, [2]float64{disagree, agree})
		}
		s.shift = append(s.shift, ix.shift[c.Bit-1])
	}
	s.sums = resize(s.sums, len(ix.sorted))
	ix.sumRows(s, s.shift, s.tab)

	k := min(n, len(ix.sorted))
	top := s.top[:0]
	for r, id := range ix.sorted {
		if r > 0 && id == ix.sorted[r-1] {
			continue
		}
		e := scored{id: id, strict: h.ok(id), s: s.sums[r]}
		if len(top) == k {
			if !e.better(top[k-1]) {
				continue
			}
			top[k-1] = e
		} else {
			top = append(top, e)
		}
		for j := len(top) - 1; j > 0 && top[j].better(top[j-1]); j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	s.top = top
	return top
}

// greedyStart loads an alert's ΔP and template probabilities into the
// greedy residual ranking and marks every row unpicked.
//
// The greedy ranking models the shift as a superposition
// Δp_i ≈ Σ_j ε_j(x_ji − p_i): picks are made one at a time, each time
// subtracting the least-squares contribution of the picked ID from the
// residual. This is the paper's "direction and changing rate" refinement
// and recovers the separate components of multi-ID mixtures that the
// agreement ranking blurs together.
func (ix *Index) greedyStart(s *Scratch, a detect.Alert) {
	w := ix.width
	s.residual, s.tp = resize(s.residual, w), resize(s.tp, w)
	clear(s.residual)
	clear(s.tp)
	for _, b := range a.Bits {
		if b.Bit >= 1 && b.Bit <= w {
			s.residual[b.Bit-1] = b.DeltaP
			s.tp[b.Bit-1] = b.TemplateP
		}
	}
	s.picked = resize(s.picked, len(ix.sorted))
	clear(s.picked)
}

// greedyNext makes the next greedy pick: the unpicked row whose centred
// bit vector g = bit − TemplateP has the largest dot product with the
// residual (the lowest identifier on ties), then subtracts its capped
// least-squares step. It reports false when no dot product is above −∞
// — the residual overflowed.
func (ix *Index) greedyNext(s *Scratch) (can.ID, bool) {
	w := ix.width
	s.tab = resize(s.tab, w)
	for i, r := range s.residual {
		s.tab[i] = [2]float64{r * (0 - s.tp[i]), r * (1 - s.tp[i])}
	}
	ix.sumRows(s, ix.shift, s.tab)
	best, bestDot := -1, math.Inf(-1)
	for k, dot := range s.sums {
		// Strict inequality keeps ties resolved toward the lowest
		// (highest arbitration priority) identifier.
		if !s.picked[k] && dot > bestDot {
			best, bestDot = k, dot
		}
	}
	if best < 0 {
		return 0, false
	}
	s.picked[best] = true
	id := ix.sorted[best]
	var num, den float64
	for i, sh := range ix.shift {
		g := float64(bit(id, sh)) - s.tp[i]
		num += s.residual[i] * g
		den += g * g
	}
	if den > 0 {
		eps := num / den
		if eps < 0 {
			eps = 0
		}
		// Cap the subtraction step at a realistic single-ID injection
		// fraction. A full least-squares step lets one "averaged"
		// identifier absorb a whole multi-ID mixture, hiding the true
		// components from later picks; a small step keeps each
		// component visible until something close to it has been
		// picked.
		if eps > 0.08 {
			eps = 0.08
		}
		for i, sh := range ix.shift {
			g := float64(bit(id, sh)) - s.tp[i]
			s.residual[i] -= eps * g
		}
	}
	return id, true
}

// sumRows sets s.sums[k] to Σ_j tab[j][b_j], summed in j order from +0,
// where b_j is the bit shift[j] reads from row k's identifier.
//
// When the leading terms read consecutive bits, MSB first (the greedy
// pass, and an alert that reports its bits in order), their
// partial sums depend only on those few bits of the identifier: every
// distinct value is built once, level by level, and each row starts
// from its own. Every row's sum is still the same sequence of additions
// as summing it alone.
func (ix *Index) sumRows(s *Scratch, shift []uint8, tab [][2]float64) {
	ids := ix.sorted
	sums := s.sums[:len(ids)]
	tab = tab[:len(shift)]
	lead := 0
	for lead < min(len(shift), prefixBits) && int(shift[lead]) == int(shift[0])-lead && shift[0] < 63 {
		lead++
	}
	if lead < 2 {
		lead = 0
	}
	// pre[1<<l + p] is the sum of the first l terms for leading bits p.
	pre := resize(s.pre, 2<<lead)
	pre[1] = 0
	for l := 0; l < lead; l++ {
		t := &tab[l]
		for p := 0; p < 1<<l; p++ {
			v := pre[1<<l+p]
			pre[2<<l+2*p] = v + t[0]
			pre[2<<l+2*p+1] = v + t[1]
		}
	}
	s.pre = pre
	mask, lsh := uint64(1)<<lead-1, uint8(0)
	if lead > 0 {
		lsh = shift[lead-1] & 63
	}
	pre = pre[1<<lead:]
	for k, id := range ids {
		sums[k] = pre[uint64(id)>>lsh&mask]
	}
	rest, tab := shift[lead:], tab[lead:]
	k := 0
	for ; k+4 <= len(ids); k += 4 {
		addTerms4((*[4]float64)(sums[k:k+4]), (*[4]can.ID)(ids[k:k+4]), rest, tab)
	}
	for ; k < len(ids); k++ {
		for j, sh := range rest {
			sums[k] += tab[j][bit(ids[k], sh)]
		}
	}
}

// addTerms4 adds the terms to four rows' sums side by side, so their
// independent chains of additions overlap in the pipeline.
func addTerms4(out *[4]float64, r *[4]can.ID, shift []uint8, tab [][2]float64) {
	r0, r1, r2, r3 := r[0], r[1], r[2], r[3]
	s0, s1, s2, s3 := out[0], out[1], out[2], out[3]
	tab = tab[:len(shift)]
	for j, sh := range shift {
		t := &tab[j]
		s0 += t[bit(r0, sh)]
		s1 += t[bit(r1, sh)]
		s2 += t[bit(r2, sh)]
		s3 += t[bit(r3, sh)]
	}
	out[0], out[1], out[2], out[3] = s0, s1, s2, s3
}

// prefixBits is how many leading terms sumRows tabulates: 2^(prefixBits+1)
// additions build the table, about as many as it saves on a pool of a
// few hundred identifiers.
const prefixBits = 7

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// resize returns buf with length n, reallocating only to grow.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
