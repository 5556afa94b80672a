package audit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"dagguise/internal/rng"
	"dagguise/internal/stats"
)

// ErrCanceled is returned (wrapped) by every context-aware audit entry
// point when the context is canceled or its deadline passes mid-loop. The
// permutation and bootstrap loops are O(k·n) and dominate dagaudit runtime,
// so they poll the context once per resample.
var ErrCanceled = errors.New("audit: canceled")

// ErrInsufficientSamples is returned (wrapped) by the calibration
// primitives and Auditor.Flush when a window holds fewer than 2 samples
// for either secret class. Welch's t needs a variance estimate per class
// and a permutation null over a 1-sample class is degenerate, so instead
// of quietly producing a NaN statistic or a zero threshold that every
// later comparison misreads, starvation is a typed, matchable error —
// the verdict a long-running audit service must surface for a tenant
// whose stream dried up on one secret class.
var ErrInsufficientSamples = errors.New("audit: fewer than 2 samples in a secret class")

// ctxErr converts a context failure into a typed ErrCanceled (nil when the
// context is still live).
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	return nil
}

// quantileIdx returns the index of the ceil(q·k) order statistic, clamped.
func quantileIdx(k int, q float64) int {
	idx := int(math.Ceil(q*float64(k))) - 1
	if idx < 0 {
		return 0
	}
	if idx >= k {
		return k - 1
	}
	return idx
}

// permQuantileIdx is the (1 - alpha) rejection-threshold index the
// permutation calibrations cut at.
func permQuantileIdx(k int, alpha float64) int {
	return quantileIdx(k, 1-alpha)
}

// calibrate is the one calibration loop behind every threshold and
// interval: it polls ctx, then evaluates one resample with draw, k times,
// and returns the k values sorted ascending. Each draw rearranges a coded
// pool (a shuffled or resampled index array) and counts codes, so no
// resample copies, sorts or hashes the samples.
func calibrate(ctx context.Context, k int, draw func() float64) ([]float64, error) {
	vals := make([]float64, k)
	for i := range vals {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		vals[i] = draw()
	}
	sort.Float64s(vals)
	return vals, nil
}

// checkPool rejects a pool with fewer than 2 samples in either class.
func checkPool(p *stats.Pooled, what string) error {
	if n0, n1 := p.Len0(), p.Len()-p.Len0(); n0 < 2 || n1 < 2 {
		return fmt.Errorf("%w: %s got %d and %d", ErrInsufficientSamples, what, n0, n1)
	}
	return nil
}

// PermutationThresholdCtx is PermutationThreshold with cancellation: it
// polls ctx once per permutation and returns a wrapped ErrCanceled the
// moment it fires. When it completes, the value and the PRNG draws consumed
// are identical to the context-free form.
func PermutationThresholdCtx(ctx context.Context, p *stats.Pooled, stat Stat, k int, alpha float64, rnd *rng.Rand) (float64, error) {
	if k < 1 || p.Len() == 0 {
		return 0, nil
	}
	if err := checkPool(p, "calibration"); err != nil {
		return 0, err
	}
	// The shuffles compose: each permutation rearranges the previous one.
	idx := p.Identity()
	swap := func(a, b int) { idx[a], idx[b] = idx[b], idx[a] }
	vals, err := calibrate(ctx, k, func() float64 {
		rnd.Shuffle(len(idx), swap)
		return stat(p, idx)
	})
	if err != nil {
		return 0, err
	}
	return vals[permQuantileIdx(k, alpha)], nil
}

// SequencePermutationThresholdCtx is SequencePermutationThreshold with
// cancellation, polled once per permutation round.
func SequencePermutationThresholdCtx(ctx context.Context, seq0, seq1 [][]uint64, binWidth uint64, k int, alpha float64, rnd *rng.Rand) (float64, error) {
	n := min(len(seq0), len(seq1))
	if n == 0 || k < 1 {
		return 0, nil
	}
	pools := make([]*stats.Pooled, n)
	idxs := make([][]int32, n)
	for p := range pools {
		pools[p] = stats.Pool(seq0[p], seq1[p], binWidth)
		idxs[p] = make([]int32, pools[p].Len())
	}
	vals, err := calibrate(ctx, k, func() float64 {
		total := 0.0
		for p, pool := range pools {
			// Every round shuffles each position's pool afresh.
			idx := idxs[p]
			for i := range idx {
				idx[i] = int32(i)
			}
			rnd.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
			total += pool.MI(idx)
		}
		return total / float64(n)
	})
	if err != nil {
		return 0, err
	}
	return vals[permQuantileIdx(k, alpha)], nil
}

// BootstrapCICtx is BootstrapCI with cancellation, polled once per
// resample.
func BootstrapCICtx(ctx context.Context, p *stats.Pooled, stat Stat, b int, confidence float64, rnd *rng.Rand) (lo, hi float64, err error) {
	if b < 1 || p.Len() == 0 {
		return 0, 0, nil
	}
	if err := checkPool(p, "bootstrap"); err != nil {
		return 0, 0, err
	}
	n0, n1 := p.Len0(), p.Len()-p.Len0()
	idx := make([]int32, p.Len())
	vals, err := calibrate(ctx, b, func() float64 {
		for j := range idx[:n0] {
			idx[j] = int32(rnd.Intn(n0))
		}
		for j := n0; j < len(idx); j++ {
			idx[j] = int32(n0 + rnd.Intn(n1))
		}
		return stat(p, idx)
	})
	if err != nil {
		return 0, 0, err
	}
	tail := (1 - confidence) / 2
	return vals[quantileIdx(b, tail)], vals[quantileIdx(b, 1-tail)], nil
}

// PushCtx is Push with cancellation: window calibration triggered by this
// sample is abandoned (wrapped ErrCanceled) when the context fires. Samples
// already appended stay; a later PushCtx with a live context resumes the
// pending windows.
func (a *Auditor) PushCtx(ctx context.Context, secret int, s Sample) error {
	if secret != 0 && secret != 1 {
		return fmt.Errorf("audit: secret %d outside the binary channel", secret)
	}
	a.streams[secret] = append(a.streams[secret], s)
	return a.drainCtx(ctx)
}

// PushTapCtx feeds every sample of the tap under the given secret,
// honouring cancellation between windows.
func (a *Auditor) PushTapCtx(ctx context.Context, secret int, t *Tap) error {
	for _, s := range t.Samples() {
		if err := a.PushCtx(ctx, secret, s); err != nil {
			return err
		}
	}
	return nil
}

// drainCtx audits every complete window, honouring cancellation both
// between windows and inside each window's calibration loops. An
// abandoned window leaves the auditor's counters untouched, so a later
// push with a live context re-evaluates it identically.
func (a *Auditor) drainCtx(ctx context.Context) error {
	w := a.cfg.Window
	for a.base+len(a.streams[0]) >= a.next+w && a.base+len(a.streams[1]) >= a.next+w {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		rel := a.next - a.base
		rep, err := a.evalWindow(ctx, a.next, a.streams[0][rel:rel+w], a.streams[1][rel:rel+w])
		if err != nil {
			return err
		}
		a.windows = append(a.windows, rep)
		a.next += a.cfg.stride()
	}
	return nil
}
