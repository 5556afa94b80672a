// Package stats provides the measurement utilities used across the
// evaluation: aggregate means, the two-sample leakage detectors (Welch's t
// and the Kolmogorov–Smirnov distance), and the mutual-information
// estimator that quantifies side-channel leakage for the Table 1 security
// comparison.
package stats

import (
	"fmt"
	"math"
	"slices"
)

// NonPositiveError reports a Geomean input outside its domain: the
// geometric mean is only defined over positive values.
type NonPositiveError struct {
	// Index is the offending position, Value the offending input.
	Index int
	Value float64
}

// Error implements error.
func (e *NonPositiveError) Error() string {
	return fmt.Sprintf("stats: geomean of non-positive value %f at index %d", e.Value, e.Index)
}

// Geomean returns the geometric mean of positive values (the aggregate the
// paper uses for normalized IPC). It returns 0 for an empty slice and a
// *NonPositiveError when any input is outside the function's domain.
func Geomean(vals []float64) (float64, error) {
	if len(vals) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i, v := range vals {
		if v <= 0 {
			return 0, &NonPositiveError{Index: i, Value: v}
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals))), nil
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// BinaryMI estimates the mutual information, in bits, between a uniform
// binary secret and an observation, from samples of the observation under
// each secret value. This is the leakage metric of the security
// comparison: a perfectly protected channel gives 0 bits; 1 bit means the
// observation fully determines the secret.
//
// The plug-in estimator is positively biased on finite samples — two
// sample sets drawn from the *same* distribution report spuriously
// positive MI of roughly (bins-1)/(2N ln 2) bits — so the estimate is
// Miller–Madow corrected: the entropy-bias terms of the marginal and
// joint histograms cancel against each other, leaving the correction
// (cells - bins - 1)/(2N ln 2) where cells counts the populated
// (secret, bin) pairs. The result is clamped to [0, 1] (the entropy of a
// binary secret bounds it from above; the correction can overshoot on
// either side for tiny N). A bin width of 0 makes every distinct value its
// own bin.
func BinaryMI(obs0, obs1 []uint64, binWidth uint64) float64 {
	p := Pool(obs0, obs1, binWidth)
	return p.MI(p.Identity())
}

// miCounts is BinaryMI over per-bin counts c0 and c1 of samples of sizes
// n0 and n1, indexed by bin rank. Bins are summed in ascending order so
// the floating-point summation order, and with it the estimate's last ulp,
// is deterministic (the audit layer golden-tests reports built from these
// values); bins neither sample occupies are skipped.
func miCounts(c0, c1 []int32, n0, n1 int) float64 {
	if n0 == 0 || n1 == 0 {
		return 0
	}
	mi := 0.0
	cells, bins := 0, 0
	for b := range c0 {
		if c0[b] == 0 && c1[b] == 0 {
			continue
		}
		bins++
		p0 := float64(c0[b]) / float64(n0)
		p1 := float64(c1[b]) / float64(n1)
		pb := (p0 + p1) / 2
		if p0 > 0 {
			mi += 0.5 * p0 * math.Log2(p0/pb)
			cells++
		}
		if p1 > 0 {
			mi += 0.5 * p1 * math.Log2(p1/pb)
			cells++
		}
	}
	n := float64(n0 + n1)
	mi -= float64(cells-bins-1) / (2 * n * math.Ln2)
	if mi < 0 {
		mi = 0
	}
	if mi > 1 {
		mi = 1
	}
	return mi
}

// degenerateT is the value WelchT reports when both samples have zero
// variance but different means: the statistic is infinite in the limit, and
// a large finite sentinel keeps reports JSON-encodable and comparable.
const degenerateT = 1e12

// WelchT returns the absolute Welch's t statistic between two samples —
// the TVLA-style first-order leakage detector. It needs at least two
// samples on each side (returns 0 otherwise); when both samples are
// constant it returns 0 for equal means and a large sentinel value for
// distinct means.
func WelchT(a, b []uint64) float64 {
	if len(a) < 2 || len(b) < 2 {
		return 0
	}
	meanVar := func(xs []uint64) (m, v float64) {
		for _, x := range xs {
			m += float64(x)
		}
		m /= float64(len(xs))
		for _, x := range xs {
			d := float64(x) - m
			v += d * d
		}
		v /= float64(len(xs) - 1)
		return m, v
	}
	m0, v0 := meanVar(a)
	m1, v1 := meanVar(b)
	se := v0/float64(len(a)) + v1/float64(len(b))
	if se == 0 {
		if m0 == m1 {
			return 0
		}
		return degenerateT
	}
	return math.Abs(m0-m1) / math.Sqrt(se)
}

// KSDistance returns the two-sample Kolmogorov–Smirnov statistic: the
// supremum distance between the empirical CDFs of a and b, in [0, 1]. It
// is distribution-free — sensitive to any difference in shape, not just the
// mean shift WelchT detects — and returns 0 when either sample is empty.
func KSDistance(a, b []uint64) float64 {
	p := Pool(a, b, 0)
	return p.KS(p.Identity())
}

// ksCounts is KSDistance over per-rank counts c0 and c1 of samples of
// sizes n0 and n1, indexed by value rank: both empirical CDFs step at each
// rank in ascending order, and the walk stops once either sample is
// exhausted, as the two-pointer walk over sorted samples does. A rank
// neither sample holds repeats the previous distance and cannot raise the
// supremum.
func ksCounts(c0, c1 []int32, n0, n1 int) float64 {
	if n0 == 0 || n1 == 0 {
		return 0
	}
	na, nb := float64(n0), float64(n1)
	var i, j int
	var d float64
	for r := 0; i < n0 && j < n1; r++ {
		i += int(c0[r])
		j += int(c1[r])
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// Pooled is two samples pooled, sample 0 first, and rank-coded once, so a
// statistic over any rearrangement of the pool (a label permutation or a
// bootstrap resample) is a count over dense codes instead of a sort or a
// map. KS depends only on the order of the values, so each value is coded
// by its rank among the pool's distinct values; MI depends only on which
// bin each value falls in, so each is also coded by its bin's rank among
// the pool's occupied bins. Codes ascend with the values and bins they
// stand for, so a walk over them visits values and bins in sorted order
// and every statistic keeps its floating-point summation order.
//
// The statistic methods read an arrangement idx of pool positions:
// idx[:Len0()] forms sample 0 and the rest sample 1. A Pooled keeps
// scratch buffers between calls and is not safe for concurrent use.
type Pooled struct {
	vals        []uint64 // pooled values, sample 0 first
	rank, bin   []int32  // per position: value rank and bin rank
	ranks, bins int      // distinct values and occupied bins
	n0          int
	c0, c1      []int32  // per-code counts of the arrangement being read
	gathered    []uint64 // the arrangement's values, for WelchT
}

// Pool pools and codes obs0 and obs1 for MI bins of width binWidth (0 =
// every distinct value is its own bin).
func Pool(obs0, obs1 []uint64, binWidth uint64) *Pooled {
	if binWidth == 0 {
		binWidth = 1
	}
	n := len(obs0) + len(obs1)
	p := &Pooled{
		vals:     make([]uint64, 0, n),
		rank:     make([]int32, n),
		bin:      make([]int32, n),
		n0:       len(obs0),
		gathered: make([]uint64, n),
	}
	p.vals = append(append(p.vals, obs0...), obs1...)
	distinct := slices.Clone(p.vals)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	// Bins are monotone in the value, so the bin rank of the r-th distinct
	// value steps up exactly where v / binWidth changes.
	binOf := make([]int32, len(distinct))
	for r := 1; r < len(distinct); r++ {
		binOf[r] = binOf[r-1]
		if distinct[r]/binWidth != distinct[r-1]/binWidth {
			binOf[r]++
		}
	}
	for i, v := range p.vals {
		r, _ := slices.BinarySearch(distinct, v)
		p.rank[i], p.bin[i] = int32(r), binOf[r]
	}
	p.ranks = len(distinct)
	if p.ranks > 0 {
		p.bins = int(binOf[p.ranks-1]) + 1
	}
	p.c0 = make([]int32, p.ranks)
	p.c1 = make([]int32, p.ranks)
	return p
}

// Len is the pooled sample count; Len0 the size of sample 0.
func (p *Pooled) Len() int  { return len(p.vals) }
func (p *Pooled) Len0() int { return p.n0 }

// Identity returns a fresh arrangement of the observed split.
func (p *Pooled) Identity() []int32 {
	idx := make([]int32, len(p.vals))
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// WelchT is WelchT over the arrangement, reading values in idx order.
func (p *Pooled) WelchT(idx []int32) float64 {
	for j, i := range idx {
		p.gathered[j] = p.vals[i]
	}
	return WelchT(p.gathered[:p.n0], p.gathered[p.n0:])
}

// KS is KSDistance over the arrangement.
func (p *Pooled) KS(idx []int32) float64 {
	c0, c1 := p.count(p.rank, p.ranks, idx)
	return ksCounts(c0, c1, p.n0, len(idx)-p.n0)
}

// MI is BinaryMI over the arrangement.
func (p *Pooled) MI(idx []int32) float64 {
	c0, c1 := p.count(p.bin, p.bins, idx)
	return miCounts(c0, c1, p.n0, len(idx)-p.n0)
}

// count tallies the codes of each sample of the arrangement into the
// first n entries of the count buffers.
func (p *Pooled) count(codes []int32, n int, idx []int32) (c0, c1 []int32) {
	c0, c1 = p.c0[:n], p.c1[:n]
	clear(c0)
	clear(c1)
	for _, i := range idx[:p.n0] {
		c0[codes[i]]++
	}
	for _, i := range idx[p.n0:] {
		c1[codes[i]]++
	}
	return c0, c1
}

// SequenceMI estimates per-position mutual information between the secret
// and a *sequence* of observations by averaging BinaryMI across positions.
// It captures ordering leaks (Figure 2) that aggregate histograms hide.
func SequenceMI(seq0, seq1 [][]uint64, binWidth uint64) float64 {
	n := len(seq0)
	if len(seq1) < n {
		n = len(seq1)
	}
	if n == 0 {
		return 0
	}
	// seq0[i] and seq1[i] are samples of observation position i under
	// secrets 0 and 1.
	total := 0.0
	for i := 0; i < n; i++ {
		total += BinaryMI(seq0[i], seq1[i], binWidth)
	}
	return total / float64(n)
}

// Normalize divides each value by the matching baseline value.
func Normalize(values, baseline []float64) ([]float64, error) {
	if len(values) != len(baseline) {
		return nil, fmt.Errorf("stats: normalize length mismatch %d vs %d", len(values), len(baseline))
	}
	out := make([]float64, len(values))
	for i := range values {
		if baseline[i] == 0 {
			return nil, fmt.Errorf("stats: zero baseline at index %d", i)
		}
		out[i] = values[i] / baseline[i]
	}
	return out, nil
}
