package rng

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMatchesStdlibStream pins the load-bearing compatibility property: the
// wrapper's value stream is exactly math/rand's for the same seed, so
// swapping rng.New in for rand.New(rand.NewSource(seed)) changes no golden
// output anywhere in the repo.
func TestMatchesStdlibStream(t *testing.T) {
	r := New(42)
	ref := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		switch i % 5 {
		case 0:
			if got, want := r.Int63(), ref.Int63(); got != want {
				t.Fatalf("draw %d: Int63 %d != %d", i, got, want)
			}
		case 1:
			if got, want := r.Intn(977), ref.Intn(977); got != want {
				t.Fatalf("draw %d: Intn %d != %d", i, got, want)
			}
		case 2:
			if got, want := r.Float64(), ref.Float64(); got != want {
				t.Fatalf("draw %d: Float64 %v != %v", i, got, want)
			}
		case 3:
			if got, want := r.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("draw %d: Uint64 %d != %d", i, got, want)
			}
		case 4:
			if got, want := r.Int63n(1<<40), ref.Int63n(1<<40); got != want {
				t.Fatalf("draw %d: Int63n %d != %d", i, got, want)
			}
		}
	}
}

// TestSaveRestoreContinues proves the checkpoint property: a generator
// restored from State produces exactly the stream the original generator
// produces after the save point, across a mixed method workload.
func TestSaveRestoreContinues(t *testing.T) {
	orig := New(7)
	// Consume a messy mix so the draw counter covers every method.
	for i := 0; i < 1234; i++ {
		switch i % 4 {
		case 0:
			orig.Intn(31)
		case 1:
			orig.Float64()
		case 2:
			orig.Int63n(1 << 50)
		case 3:
			orig.Shuffle(8, func(a, b int) {})
		}
	}
	st := orig.State()

	restored := FromState(st)
	if restored.State() != st {
		t.Fatalf("restored state %+v != saved %+v", restored.State(), st)
	}
	for i := 0; i < 2000; i++ {
		switch i % 3 {
		case 0:
			if got, want := restored.Int63(), orig.Int63(); got != want {
				t.Fatalf("continuation draw %d: %d != %d", i, got, want)
			}
		case 1:
			if got, want := restored.Float64(), orig.Float64(); got != want {
				t.Fatalf("continuation draw %d: %v != %v", i, got, want)
			}
		case 2:
			if got, want := restored.Intn(4096), orig.Intn(4096); got != want {
				t.Fatalf("continuation draw %d: %d != %d", i, got, want)
			}
		}
	}
}

// TestRestoreInPlace checks Restore on a live generator rewinds it.
func TestRestoreInPlace(t *testing.T) {
	r := New(99)
	r.Intn(1000)
	st := r.State()
	want := []int{r.Intn(1000), r.Intn(1000), r.Intn(1000)}
	r.Restore(st)
	for i, w := range want {
		if got := r.Intn(1000); got != w {
			t.Fatalf("replayed draw %d: %d != %d", i, got, w)
		}
	}
}

// TestRestoreMatchesFromState restores live generators forward, backward
// and onto another seed. Each must continue exactly as FromState and as a
// standard-library generator advanced by the target draw count, and only
// a restore that cannot advance the current stream may re-seed.
func TestRestoreMatchesFromState(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		used   uint64 // draws consumed before the restore
		target State
		reseed bool
	}{
		{"forward", 11, 50, State{Seed: 11, Draws: 400}, false},
		{"fresh forward", 11, 0, State{Seed: 11, Draws: 1234}, false},
		{"same position", 11, 50, State{Seed: 11, Draws: 50}, false},
		{"backward", 11, 400, State{Seed: 11, Draws: 50}, true},
		{"backward to zero", 11, 400, State{Seed: 11}, true},
		{"other seed ahead", 11, 50, State{Seed: 12, Draws: 400}, true},
		{"other seed behind", 11, 400, State{Seed: 12, Draws: 50}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := New(c.seed)
			for i := uint64(0); i < c.used; i++ {
				r.Int63()
			}
			src := r.src
			r.Restore(c.target)
			if r.State() != c.target {
				t.Fatalf("restored state %+v, want %+v", r.State(), c.target)
			}
			if reseeded := r.src != src; reseeded != c.reseed {
				t.Fatalf("re-seeded = %v, want %v", reseeded, c.reseed)
			}
			want := FromState(c.target)
			ref := rand.New(rand.NewSource(c.target.Seed))
			for i := uint64(0); i < c.target.Draws; i++ {
				ref.Int63()
			}
			for i := 0; i < 500; i++ {
				got, w, std := r.Intn(1<<20), want.Intn(1<<20), ref.Intn(1<<20)
				if got != w || got != std {
					t.Fatalf("draw %d after restore: %d, FromState %d, stdlib %d", i, got, w, std)
				}
			}
		})
	}
}

// TestZeroDrawState covers the fresh-generator round trip.
func TestZeroDrawState(t *testing.T) {
	st := New(5).State()
	if st != (State{Seed: 5}) {
		t.Fatalf("fresh state = %+v", st)
	}
	a, b := FromState(st), New(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("fresh restore diverges at draw %d", i)
		}
	}
}

// TestDeriveStable pins Derive as a pure, process-independent function:
// same (seed, label) always maps to the same substream seed, and the seed
// and label both matter.
func TestDeriveStable(t *testing.T) {
	if Derive(42, "tenant-00001") != Derive(42, "tenant-00001") {
		t.Fatal("Derive is not deterministic")
	}
	if Derive(42, "tenant-00001") == Derive(43, "tenant-00001") {
		t.Fatal("Derive ignores the seed")
	}
	if Derive(42, "tenant-00001") == Derive(42, "tenant-00002") {
		t.Fatal("Derive ignores the label")
	}
}

// TestDeriveNoCollisionsAtShardScale is the fleet fabric's substream
// independence smoke test: the label vocabulary a big campaign generates —
// 10k shard seeds crossed with the per-tenant and per-shaper label shapes
// sim.Cluster uses — must produce no colliding substream seeds under one
// base seed.
func TestDeriveNoCollisionsAtShardScale(t *testing.T) {
	const base = int64(1)
	seen := make(map[int64]string, 64_000)
	check := func(label string) {
		t.Helper()
		s := Derive(base, label)
		if prev, dup := seen[s]; dup {
			t.Fatalf("substream seed collision: %q and %q both derive %d", prev, label, s)
		}
		seen[s] = label
	}
	for shard := 0; shard < 10_000; shard++ {
		check(fmt.Sprintf("shard-%05d", shard))
	}
	// One shard's worth of tenant and shaper streams at fleet scale.
	for tenant := 0; tenant < 10_000; tenant++ {
		check(fmt.Sprintf("tenant-%05d", tenant))
	}
	for ch := 0; ch < 16; ch++ {
		for dom := 1; dom <= 2_000; dom++ {
			check(fmt.Sprintf("shaper-ch%04d-dom%05d", ch, dom))
		}
	}
}
