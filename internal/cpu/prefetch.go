package cpu

// The L2 stream prefetcher: a small table of sequential miss streams. When
// a demand miss extends a tracked stream, the prefetcher runs PrefetchDepth
// lines ahead of it. Prefetched lines fill L2/L3 only, prefetch requests
// use their own outstanding budget (they must not steal demand MSHRs), and
// — crucially for this paper — they travel through the same port as demand
// traffic, so a protected core's prefetches are shaped by its DAGguise
// shaper like any other request.

type stream struct {
	next    uint64 // next expected miss line
	ahead   uint64 // highest line already prefetched
	hits    int
	lastUse uint64
}

type prefetcher struct {
	streams []stream
	depth   int
	clock   uint64
}

func newPrefetcher(depth, streams int) *prefetcher {
	if depth <= 0 {
		return nil
	}
	if streams <= 0 {
		streams = 8
	}
	return &prefetcher{streams: make([]stream, streams), depth: depth}
}

// onMiss records a demand miss to the line and appends the lines to
// prefetch (possibly none) to dst.
func (p *prefetcher) onMiss(dst []uint64, line uint64) []uint64 {
	p.clock++
	// Extend an existing stream?
	for i := range p.streams {
		s := &p.streams[i]
		if s.next != 0 && line >= s.next && line <= s.next+2 {
			s.hits++
			s.next = line + 1
			s.lastUse = p.clock
			if s.hits < 2 {
				return dst // not yet confirmed
			}
			target := line + uint64(p.depth)
			if s.ahead < line {
				s.ahead = line
			}
			for l := s.ahead + 1; l <= target; l++ {
				dst = append(dst, l)
			}
			s.ahead = target
			return dst
		}
	}
	// Allocate the least-recently-used entry for a potential new stream.
	lru := 0
	for i := range p.streams {
		if p.streams[i].lastUse < p.streams[lru].lastUse {
			lru = i
		}
	}
	p.streams[lru] = stream{next: line + 1, lastUse: p.clock}
	return dst
}
