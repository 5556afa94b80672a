package sim

import (
	"testing"

	"dagguise/internal/config"
)

// TestSteadyStateAllocFree pins the Figure 9 hot path allocation-free: once
// the two-core DocDist + lbm machine is warm, running it allocates nothing,
// under every scheme.
func TestSteadyStateAllocFree(t *testing.T) {
	for _, scheme := range []config.Scheme{config.Insecure, config.FixedService, config.FSBTA, config.TemporalPartitioning, config.Camouflage, config.DAGguise} {
		t.Run(scheme.String(), func(t *testing.T) {
			sys, err := New(config.Default(2, scheme), []CoreSpec{docdistSpec(t, true), specFor(t, "lbm", 5, false)})
			if err != nil {
				t.Fatal(err)
			}
			sys.Run(200_000)
			if allocs := testing.AllocsPerRun(1, func() { sys.Run(10_000) }); allocs != 0 {
				t.Fatalf("Run(10_000) after warm-up allocated %v times, want 0", allocs)
			}
		})
	}
}
