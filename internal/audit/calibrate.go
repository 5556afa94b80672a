package audit

import (
	"context"

	"dagguise/internal/rng"
	"dagguise/internal/stats"
)

// Stat is a two-sample statistic over an arrangement of a coded pool of
// secret-conditioned observations (larger = more distinguishable): idx
// lists pool positions, the first p.Len0() of them forming secret 0's
// sample. The method expressions (*stats.Pooled).WelchT, .KS and .MI all
// fit.
type Stat func(p *stats.Pooled, idx []int32) float64

// PermutationThreshold estimates the (1 - alpha) quantile of stat's null
// distribution on this window by reassigning the pooled samples to the two
// secret labels k times and recomputing the statistic. Under the null
// (no leakage) the labels are exchangeable, so comparing the observed
// statistic against this threshold rejects with false-positive rate alpha
// by construction — no distributional assumptions, no magic constants. The
// caller seeds rnd, which makes the threshold deterministic.
//
// This form never aborts; PermutationThresholdCtx adds cancellation.
func PermutationThreshold(p *stats.Pooled, stat Stat, k int, alpha float64, rnd *rng.Rand) float64 {
	v, _ := PermutationThresholdCtx(context.Background(), p, stat, k, alpha, rnd)
	return v
}

// SequencePermutationThreshold calibrates stats.SequenceMI: under the
// no-leakage null the samples at each probe position are exchangeable
// between the two secrets, so shuffling every position's pooled samples
// independently k times yields the statistic's null distribution and the
// (1 - alpha) quantile is the rejection threshold. Positions keep their
// identity (only labels within a position are permuted), so the threshold
// is valid for the ordering-sensitive statistic.
func SequencePermutationThreshold(seq0, seq1 [][]uint64, binWidth uint64, k int, alpha float64, rnd *rng.Rand) float64 {
	v, _ := SequencePermutationThresholdCtx(context.Background(), seq0, seq1, binWidth, k, alpha, rnd)
	return v
}

// BootstrapCI returns a percentile-bootstrap confidence interval for stat
// at the given confidence level: each side is resampled with replacement b
// times and the interval is cut from the resampled statistic's quantiles.
// The interval quantifies the finite-sample uncertainty the old point
// estimate hid. The caller seeds rnd, which makes the interval
// deterministic.
func BootstrapCI(p *stats.Pooled, stat Stat, b int, confidence float64, rnd *rng.Rand) (lo, hi float64) {
	lo, hi, _ = BootstrapCICtx(context.Background(), p, stat, b, confidence, rnd)
	return lo, hi
}
