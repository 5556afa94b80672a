package cpu

import "testing"

func TestPrefetcherDisabledWhenDepthZero(t *testing.T) {
	if newPrefetcher(0, 8) != nil {
		t.Fatal("depth 0 should disable the prefetcher")
	}
}

func TestPrefetcherNeedsConfirmation(t *testing.T) {
	p := newPrefetcher(4, 8)
	if got := p.onMiss(nil, 100); got != nil {
		t.Fatalf("first miss prefetched %v", got)
	}
	// Second sequential miss confirms the stream but needs two hits.
	if got := p.onMiss(nil, 101); got != nil {
		t.Fatalf("unconfirmed stream prefetched %v", got)
	}
	got := p.onMiss(nil, 102)
	if len(got) == 0 {
		t.Fatal("confirmed stream did not prefetch")
	}
	for _, l := range got {
		if l <= 102 || l > 106 {
			t.Fatalf("prefetch line %d outside lookahead window", l)
		}
	}
}

func TestPrefetcherNoDuplicateLines(t *testing.T) {
	p := newPrefetcher(4, 8)
	p.onMiss(nil, 10)
	p.onMiss(nil, 11)
	seen := map[uint64]bool{}
	for l := uint64(12); l < 40; l++ {
		for _, pf := range p.onMiss(nil, l) {
			if seen[pf] {
				t.Fatalf("line %d prefetched twice", pf)
			}
			seen[pf] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("no prefetches issued")
	}
}

func TestPrefetcherTracksMultipleStreams(t *testing.T) {
	p := newPrefetcher(2, 4)
	// Interleave two sequential streams far apart.
	var got []uint64
	for i := uint64(0); i < 6; i++ {
		got = append(got, p.onMiss(nil, 100+i)...)
		got = append(got, p.onMiss(nil, 5000+i)...)
	}
	lo, hi := false, false
	for _, l := range got {
		if l > 100 && l < 200 {
			lo = true
		}
		if l > 5000 && l < 5100 {
			hi = true
		}
	}
	if !lo || !hi {
		t.Fatalf("streams not both tracked: prefetches %v", got)
	}
}

func TestPrefetcherEvictsLRUStream(t *testing.T) {
	p := newPrefetcher(2, 2)
	p.onMiss(nil, 100)
	p.onMiss(nil, 200)
	p.onMiss(nil, 300) // evicts the LRU entry (stream at 100)
	// Stream at 100 must re-train from scratch.
	if got := p.onMiss(nil, 101); got != nil {
		t.Fatalf("evicted stream still confirmed: %v", got)
	}
}

func TestPrefetcherToleratesSkips(t *testing.T) {
	p := newPrefetcher(4, 8)
	p.onMiss(nil, 50)
	p.onMiss(nil, 51)
	p.onMiss(nil, 52)
	// A skip of up to 2 lines still extends the stream.
	if got := p.onMiss(nil, 54); len(got) == 0 {
		t.Fatal("small skip broke the stream")
	}
}
