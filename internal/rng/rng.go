// Package rng wraps math/rand with a draw-counting source so that a
// generator's exact position in its pseudo-random stream can be captured in
// a checkpoint and restored bit-exactly. Every place the simulator draws
// randomness at run time (shaper fake addresses, Camouflage interval
// sampling, workload trace generation) holds an *rng.Rand instead of a bare
// *rand.Rand; internal/ckpt serializes the two-word State and a restored
// simulation continues the identical stream.
//
// The wrapper delegates to the standard library generator unchanged — the
// value stream of rng.New(seed) is exactly that of
// rand.New(rand.NewSource(seed)) — so swapping it in is invisible to every
// golden test. Restore replays the recorded number of source draws, which
// is exact because both Source methods (Int63 and Uint64) consume exactly
// one step of the underlying generator.
package rng

import "math/rand"

// State is the serializable position of a Rand: the seed it was created
// with and the number of source draws consumed since.
type State struct {
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`
}

// countingSource counts every draw taken from the wrapped source.
type countingSource struct {
	inner rand.Source
	s64   rand.Source64 // inner, when it supports Uint64 (it always does today)
	draws uint64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.inner.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	if s.s64 != nil {
		return s.s64.Uint64()
	}
	// Fallback composition, mirroring math/rand's internal read64: never
	// taken with the standard source, which implements Source64.
	s.draws++
	return uint64(s.inner.Int63())>>31 | uint64(s.inner.Int63())<<32
}

func (s *countingSource) Seed(seed int64) {
	s.inner.Seed(seed)
	s.draws = 0
}

// Rand is a checkpointable pseudo-random generator. The embedded *rand.Rand
// exposes the full standard API (Intn, Int63n, Float64, Shuffle, ...).
type Rand struct {
	*rand.Rand
	seed int64
	src  *countingSource
}

// New returns a generator producing the same stream as
// rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	src := newCountingSource(seed)
	return &Rand{Rand: rand.New(src), seed: seed, src: src}
}

// newCountingSource wraps a freshly seeded math/rand source.
func newCountingSource(seed int64) *countingSource {
	inner := rand.NewSource(seed)
	src := &countingSource{inner: inner}
	if s64, ok := inner.(rand.Source64); ok {
		src.s64 = s64
	}
	return src
}

// State returns the generator's serializable position.
func (r *Rand) State() State {
	return State{Seed: r.seed, Draws: r.src.draws}
}

// Restore rewinds or fast-forwards the generator to the given state; the
// next value drawn after Restore is exactly the value that would have
// followed State. A generator already on the state's seed at or before its
// draw count only advances by the difference; any other restore re-seeds
// and replays the recorded draws from the start of the stream.
func (r *Rand) Restore(st State) {
	if st.Seed != r.seed || st.Draws < r.src.draws {
		r.seed = st.Seed
		r.src = newCountingSource(st.Seed)
	}
	for r.src.draws < st.Draws {
		r.src.Int63()
	}
	// A fresh wrapper drops any buffered Read bytes, as FromState would.
	r.Rand = rand.New(r.src)
}

// FromState builds a generator positioned at the given state.
func FromState(st State) *Rand {
	r := New(st.Seed)
	r.Restore(st)
	return r
}

// Derive maps a base seed and a label onto a substream seed, so that
// independently named consumers (per-tenant auditors, per-shard noise
// sources) get decorrelated but individually reproducible streams. The
// mix is FNV-1a over the label folded into the seed — a pure function of
// its arguments, stable across processes and platforms.
//
// The fleet fabric leans on two properties pinned by tests:
//
//   - Distinct labels under one base seed yield distinct substream seeds
//     at campaign scale (tens of thousands of shard/tenant/shaper labels;
//     TestDeriveNoCollisionsAtShardScale). FNV-1a is not cryptographic, so
//     collisions are possible in principle — the test keeps the label
//     vocabulary the repo actually uses collision-free.
//   - A (seed, label) pair is a stable address: any worker on any machine
//     reconstructs the same substream, which is what lets a shard be
//     re-executed after a crash, or on a different worker, with identical
//     results.
//
// Labels should be fully qualified (e.g. "shaper-ch0002-dom00017", not
// "17") so that differently scoped consumers can never alias.
func Derive(seed int64, label string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return seed ^ int64(h&0x7fffffffffffffff)
}
