package audit

import (
	"context"
	"math/rand"
	"testing"
)

// BenchmarkAuditWindow measures one default-config window evaluation: the
// observed statistics plus Permutations label shuffles for each of the
// three detectors and Bootstrap resamples for the MI interval. The samples
// resemble probe latencies: a 64-cycle spread, slightly shifted between
// the secret classes.
func BenchmarkAuditWindow(b *testing.B) {
	cfg := DefaultConfig()
	a, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(1))
	win0 := make([]Sample, cfg.Window)
	win1 := make([]Sample, cfg.Window)
	for i := range win0 {
		win0[i] = Sample{Cycle: uint64(i) * 120, Value: 180 + uint64(rnd.Intn(64))}
		win1[i] = Sample{Cycle: uint64(i)*120 + 7, Value: 186 + uint64(rnd.Intn(64))}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.evalWindow(ctx, 0, win0, win1); err != nil {
			b.Fatal(err)
		}
	}
}
