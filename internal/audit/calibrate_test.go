package audit

import (
	"math/rand"
	"testing"

	crng "dagguise/internal/rng"

	"dagguise/internal/stats"
)

// pool8 codes a window for MI bins of width 8.
func pool8(a, b []uint64) *stats.Pooled { return stats.Pool(a, b, 8) }

// mi8 is (*stats.Pooled).MI, the audit's MI detector.
var mi8 Stat = (*stats.Pooled).MI

// observed evaluates stat on the observed split of a and b.
func observed(stat Stat, a, b []uint64) float64 {
	p := pool8(a, b)
	return stat(p, p.Identity())
}

func synth(n int, base, spread uint64, rng *rand.Rand) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(rng.Intn(int(spread)))
	}
	return out
}

func TestPermutationThresholdSeparatesSignalFromNull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	null0 := synth(80, 200, 32, rng)
	null1 := synth(80, 200, 32, rng)
	shift := synth(80, 320, 32, rng)

	for name, stat := range map[string]Stat{"welch": (*stats.Pooled).WelchT, "ks": (*stats.Pooled).KS, "mi": mi8} {
		thr := PermutationThreshold(pool8(null0, null1), stat, 200, 0.01, crng.New(5))
		if got := observed(stat, null0, null1); got > thr {
			t.Errorf("%s: null statistic %f above its own calibrated threshold %f", name, got, thr)
		}
		if got := observed(stat, null0, shift); got <= thr {
			t.Errorf("%s: shifted statistic %f not above threshold %f", name, got, thr)
		}
	}
}

func TestPermutationThresholdDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := synth(60, 100, 50, rng)
	b := synth(60, 120, 50, rng)
	t1 := PermutationThreshold(pool8(a, b), mi8, 150, 0.05, crng.New(77))
	t2 := PermutationThreshold(pool8(a, b), mi8, 150, 0.05, crng.New(77))
	if t1 != t2 {
		t.Fatalf("thresholds differ for identical seeds: %v vs %v", t1, t2)
	}
	if PermutationThreshold(pool8(nil, b), mi8, 150, 0.05, crng.New(1)) != 0 {
		t.Fatal("empty sample should yield zero threshold")
	}
}

func TestBootstrapCIBracketsEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := synth(100, 100, 16, rng)
	b := synth(100, 180, 16, rng) // clearly distinguishable
	point := observed(mi8, a, b)
	lo, hi := BootstrapCI(pool8(a, b), mi8, 200, 0.95, crng.New(31))
	if !(lo <= point && point <= hi) {
		t.Fatalf("CI [%f, %f] does not bracket point estimate %f", lo, hi, point)
	}
	if lo == hi && lo == 0 {
		t.Fatal("degenerate CI on a leaky channel")
	}
	lo2, hi2 := BootstrapCI(pool8(a, b), mi8, 200, 0.95, crng.New(31))
	if lo != lo2 || hi != hi2 {
		t.Fatal("bootstrap CI not deterministic for a fixed seed")
	}
}

func TestBootstrapCIEmptyInput(t *testing.T) {
	if lo, hi := BootstrapCI(pool8(nil, []uint64{1}), mi8, 10, 0.95, crng.New(1)); lo != 0 || hi != 0 {
		t.Fatal("empty input should yield the zero interval")
	}
}
