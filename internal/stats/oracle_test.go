package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refKSDistance is the sort-based KSDistance the rank-coded counts kernel
// replaced, kept as the differential oracle.
func refKSDistance(a, b []uint64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sa := append([]uint64(nil), a...)
	sb := append([]uint64(nil), b...)
	sort.Slice(sa, func(i, j int) bool { return sa[i] < sa[j] })
	sort.Slice(sb, func(i, j int) bool { return sb[i] < sb[j] })
	na, nb := float64(len(sa)), float64(len(sb))
	var i, j int
	var d float64
	for i < len(sa) && j < len(sb) {
		v := sa[i]
		if sb[j] < v {
			v = sb[j]
		}
		for i < len(sa) && sa[i] == v {
			i++
		}
		for j < len(sb) && sb[j] == v {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// refBinaryMI is the map-histogram BinaryMI the counts kernel replaced,
// kept as the differential oracle.
func refBinaryMI(obs0, obs1 []uint64, binWidth uint64) float64 {
	if len(obs0) == 0 || len(obs1) == 0 {
		return 0
	}
	if binWidth == 0 {
		binWidth = 1
	}
	h0, h1 := map[uint64]uint64{}, map[uint64]uint64{}
	for _, v := range obs0 {
		h0[v/binWidth]++
	}
	for _, v := range obs1 {
		h1[v/binWidth]++
	}
	total0, total1 := uint64(len(obs0)), uint64(len(obs1))
	binSet := map[uint64]bool{}
	for b := range h0 {
		binSet[b] = true
	}
	for b := range h1 {
		binSet[b] = true
	}
	bins := make([]uint64, 0, len(binSet))
	for b := range binSet {
		bins = append(bins, b)
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	mi := 0.0
	cells := 0
	for _, b := range bins {
		p0 := float64(h0[b]) / float64(total0)
		p1 := float64(h1[b]) / float64(total1)
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
	n := float64(total0 + total1)
	mi -= float64(cells-len(bins)-1) / (2 * n * math.Ln2)
	if mi < 0 {
		mi = 0
	}
	if mi > 1 {
		mi = 1
	}
	return mi
}

// checkAgainstOracle compares KSDistance and BinaryMI with the reference
// implementations bit for bit.
func checkAgainstOracle(t *testing.T, a, b []uint64, binWidth uint64) {
	t.Helper()
	if got, want := KSDistance(a, b), refKSDistance(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("KSDistance(%v, %v) = %v, oracle %v", a, b, got, want)
	}
	if got, want := BinaryMI(a, b, binWidth), refBinaryMI(a, b, binWidth); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("BinaryMI(%v, %v, %d) = %v, oracle %v", a, b, binWidth, got, want)
	}
}

// oracleSample draws a sample of n values in one of the regimes the
// estimators must agree on: heavy ties, a moderate spread, a wide spread,
// or values near 2^40.
func oracleSample(rnd *rand.Rand, n, regime int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch regime {
		case 0:
			out[i] = 100 + uint64(rnd.Intn(3))
		case 1:
			out[i] = 150 + uint64(rnd.Intn(64))
		case 2:
			out[i] = uint64(rnd.Intn(100_000))
		default:
			out[i] = 1<<40 - 512 + uint64(rnd.Intn(1024))
		}
	}
	return out
}

// oracleLen favours short samples, the degenerate lengths 0, 1 and 2
// among them, with an occasional full-window size.
func oracleLen(rnd *rand.Rand) int {
	switch r := rnd.Intn(50); {
	case r < 3:
		return r
	case r < 15:
		return 3 + rnd.Intn(30)
	case r < 49:
		return 3 + rnd.Intn(10)
	default:
		return 50 + rnd.Intn(150)
	}
}

// TestKSMIMatchOracle is the differential test of the rank-coded counts
// kernels: over 100k random inputs (heavy ties, unequal lengths including
// 0, 1 and 2, bin widths 0, 1, 4 and 64, values near 2^40) KSDistance and
// BinaryMI equal the sort- and map-based references bit for bit. Every
// tenth input also rearranges the pool, as the audit's permutation and
// bootstrap loops do, and checks the Pooled statistics against the
// references on the gathered samples.
func TestKSMIMatchOracle(t *testing.T) {
	widths := []uint64{0, 1, 4, 64}
	rnd := rand.New(rand.NewSource(1))
	for iter := 0; iter < 100_000; iter++ {
		regime := rnd.Intn(4)
		a := oracleSample(rnd, oracleLen(rnd), regime)
		b := oracleSample(rnd, oracleLen(rnd), regime)
		w := widths[iter%len(widths)]
		checkAgainstOracle(t, a, b, w)
		if iter%10 == 0 {
			checkArrangement(t, rnd, a, b, w)
		}
	}
}

// checkArrangement evaluates the Pooled statistics on a random permutation
// and a random bootstrap resample of the pool and compares each with the
// reference statistic of the samples the arrangement selects.
func checkArrangement(t *testing.T, rnd *rand.Rand, a, b []uint64, binWidth uint64) {
	t.Helper()
	p := Pool(a, b, binWidth)
	n0, n := len(a), len(a)+len(b)
	pooled := append(append([]uint64(nil), a...), b...)
	perm := p.Identity()
	rnd.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	boot := make([]int32, n)
	for j := range boot {
		if j < n0 {
			boot[j] = int32(rnd.Intn(n0))
		} else {
			boot[j] = int32(n0 + rnd.Intn(n-n0))
		}
	}
	for _, idx := range [][]int32{perm, boot} {
		x := make([]uint64, n)
		for j, i := range idx {
			x[j] = pooled[i]
		}
		x0, x1 := x[:n0], x[n0:]
		if got, want := p.KS(idx), refKSDistance(x0, x1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Pooled.KS on %v | %v = %v, oracle %v", x0, x1, got, want)
		}
		if got, want := p.MI(idx), refBinaryMI(x0, x1, binWidth); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Pooled.MI on %v | %v (width %d) = %v, oracle %v", x0, x1, binWidth, got, want)
		}
		if got, want := p.WelchT(idx), WelchT(x0, x1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Pooled.WelchT on %v | %v = %v, want %v", x0, x1, got, want)
		}
	}
}

// FuzzKSMI drives the same bit-for-bit comparison from fuzzed samples:
// each byte is one value, offset by 2^40 when high is set.
func FuzzKSMI(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 4}, uint8(0), false)
	f.Add([]byte{7, 7, 7, 7}, []byte{7, 7, 8}, uint8(4), true)
	f.Add([]byte{}, []byte{9}, uint8(1), false)
	f.Add([]byte{0, 255, 128, 64}, []byte{1, 254, 129, 63, 64}, uint8(64), true)
	f.Fuzz(func(t *testing.T, raw0, raw1 []byte, width uint8, high bool) {
		var base uint64
		if high {
			base = 1 << 40
		}
		decode := func(raw []byte) []uint64 {
			out := make([]uint64, len(raw))
			for i, v := range raw {
				out[i] = base + uint64(v)
			}
			return out
		}
		checkAgainstOracle(t, decode(raw0), decode(raw1), uint64(width))
	})
}
