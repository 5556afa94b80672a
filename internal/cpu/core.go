// Package cpu implements the trace-driven out-of-order core model: a
// ROB-sized instruction window, MSHR-limited outstanding misses and
// dependency-limited memory-level parallelism. It reproduces the property
// the evaluation depends on — IPC falls as memory latency grows and as
// bandwidth shrinks, with a sensitivity set by each workload's miss
// density and dependency structure (see DESIGN.md for the gem5
// substitution rationale).
package cpu

import (
	"fmt"

	"dagguise/internal/cache"
	"dagguise/internal/config"
	"dagguise/internal/mem"
	"dagguise/internal/obs"
	"dagguise/internal/trace"
)

// Port accepts memory requests from a core: either the memory controller's
// transaction queue directly (unprotected domains) or a DAGguise/Camouflage
// shaper's private queue (protected domains).
type Port interface {
	TryEnqueue(req mem.Request, now uint64) bool
}

// IDAlloc returns unique request IDs; all producers in a simulation share
// one allocator.
type IDAlloc func() uint64

type opStatus int

const (
	stWaitDep opStatus = iota
	stReady
	stInMem
	stDone
)

type slot struct {
	op         trace.Op
	status     opStatus
	completion uint64
	reqID      uint64
	gapLeft    int
}

// pfFlight is one in-flight prefetch or store fill: its request ID and
// the line it fetches.
type pfFlight struct {
	id, line uint64
}

// Stats aggregates core counters.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	MemOps       uint64
	MemReads     uint64 // demand reads issued to memory (LLC misses)
	Prefetches   uint64 // prefetch reads issued to memory
	Writebacks   uint64
	StallCycles  uint64 // cycles with zero retirement
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// Core is one trace-driven core.
type Core struct {
	domain mem.Domain
	src    trace.Source
	hier   *cache.Hierarchy
	cfg    config.CoreConfig
	port   Port
	alloc  IDAlloc

	// The instruction window is the ring of seqs [baseSeq, nextSeq):
	// seq lives at ring[seq&mask]. fill never holds more than ROBEntries
	// ops (each carries at least one instruction), so the ring, a power
	// of two at least that long, never wraps onto a live slot.
	ring      []slot
	mask      uint64
	baseSeq   uint64 // oldest in-window seq
	nextSeq   uint64 // seq the next fetched op gets
	instCount int    // instructions represented in the window
	// pending lists the seqs still waiting to issue (stWaitDep or
	// stReady), in program order.
	pending []uint64

	outstanding int
	reads       map[uint64]uint64 // reqID -> seq
	wbQueue     lineQueue         // dirty lines awaiting a port slot

	pf          *prefetcher
	pfPending   lineQueue  // prefetch lines awaiting a free slot/port
	fillPending lineQueue  // store-miss fill lines (write-allocate)
	pfInFlight  []pfFlight // in-flight prefetches/fills, one per line

	exhausted bool
	stats     Stats

	// Observability (nil = off); measurement only.
	mx *obs.Registry
}

// New builds a core for the domain reading ops from src through the given
// cache hierarchy, sending misses to port.
func New(domain mem.Domain, src trace.Source, hier *cache.Hierarchy, cfg config.CoreConfig, port Port, alloc IDAlloc) *Core {
	size := 1
	for size < cfg.ROBEntries {
		size <<= 1
	}
	return &Core{
		domain:  domain,
		src:     src,
		hier:    hier,
		cfg:     cfg,
		port:    port,
		alloc:   alloc,
		ring:    make([]slot, size),
		mask:    uint64(size - 1),
		pending: make([]uint64, 0, size),
		reads:   make(map[uint64]uint64),
		pf:      newPrefetcher(cfg.PrefetchDepth, cfg.PrefetchStreams),
	}
}

// Domain returns the core's security domain.
func (c *Core) Domain() mem.Domain { return c.domain }

// Observe attaches an observability registry (nil = off). Measurement
// only: the core's timing never consults it.
func (c *Core) Observe(mx *obs.Registry) { c.mx = mx }

// Stats returns the core's counters.
func (c *Core) Stats() Stats { return c.stats }

// Hierarchy exposes the core's caches (for workload calibration).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Done reports whether a finite trace has fully retired.
func (c *Core) Done() bool { return c.exhausted && c.baseSeq == c.nextSeq }

// depSatisfied reports whether the op at seq has its dependency completed.
func (c *Core) depSatisfied(s *slot, seq uint64) bool {
	if s.op.Dep <= 0 {
		return true
	}
	depSeq := seq - uint64(s.op.Dep)
	if seq < uint64(s.op.Dep) || depSeq < c.baseSeq {
		return true // dependency already retired
	}
	return c.ring[depSeq&c.mask].status == stDone
}

// Tick advances the core one cycle.
func (c *Core) Tick(now uint64) {
	c.stats.Cycles++
	c.mx.Observe(obs.HistMLP, int(c.domain), uint64(c.outstanding))
	c.fill()
	c.issue(now)
	c.issuePrefetches(now)
	c.flushWritebacks(now)
	c.retire(now)
}

// issuePrefetches drains pending store-fill and prefetch lines through the
// port, bounded by a private outstanding budget so they never steal demand
// MSHRs. Store fills skip the cache-presence filter: their line was
// functionally allocated at store time, but the bus transfer still happens.
func (c *Core) issuePrefetches(now uint64) {
	budget := 2 * c.cfg.PrefetchDepth
	if budget < 4 {
		budget = 4
	}
	// A fill left behind (budget spent or port full) blocks the
	// prefetches.
	fills := c.fillPending.lines()
	n := 0
	for n < len(fills) && len(c.pfInFlight) < budget {
		line := fills[n]
		if !c.lineInFlight(line) && !c.sendPrefetch(line, now) {
			break
		}
		n++
	}
	c.fillPending.consume(n)
	if n < len(fills) {
		return
	}
	pfs := c.pfPending.lines()
	n = 0
	for n < len(pfs) && len(c.pfInFlight) < budget {
		line := pfs[n]
		if !c.lineInFlight(line) && !c.hier.Contains(line*64) && !c.sendPrefetch(line, now) {
			break
		}
		n++
	}
	c.pfPending.consume(n)
}

// lineInFlight reports whether a prefetch or fill of the line is in flight.
func (c *Core) lineInFlight(line uint64) bool {
	for _, f := range c.pfInFlight {
		if f.line == line {
			return true
		}
	}
	return false
}

// sendPrefetch offers a prefetch read of the line to the port and records
// it in flight when accepted.
func (c *Core) sendPrefetch(line, now uint64) bool {
	id := c.alloc()
	req := mem.Request{ID: id, Addr: line * 64, Kind: mem.Read, Domain: c.domain, Issue: now, Prefetch: true}
	if !c.port.TryEnqueue(req, now) {
		return false
	}
	c.pfInFlight = append(c.pfInFlight, pfFlight{id: id, line: line})
	c.stats.Prefetches++
	return true
}

func (c *Core) fill() {
	for !c.exhausted && c.instCount < c.cfg.ROBEntries {
		op, ok := c.src.Next()
		if !ok {
			c.exhausted = true
			return
		}
		c.ring[c.nextSeq&c.mask] = slot{op: op, status: stWaitDep, gapLeft: op.Gap}
		c.pending = append(c.pending, c.nextSeq)
		c.nextSeq++
		c.instCount += op.Gap + 1
	}
}

// issue walks the un-issued ops oldest first. Statuses only move forward,
// so pending holds exactly the window's stWaitDep and stReady slots in
// program order, and an op issued earlier in the walk is visible to the
// dependency checks of the ops after it.
func (c *Core) issue(now uint64) {
	kept := c.pending[:0]
	for _, seq := range c.pending {
		s := &c.ring[seq&c.mask]
		if s.status == stWaitDep && c.depSatisfied(s, seq) {
			s.status = stReady
		}
		if s.status == stReady {
			c.access(s, seq, now)
		}
		if s.status <= stReady {
			kept = append(kept, seq)
		}
	}
	c.pending = kept
}

// needsMemSentinel marks a slot whose cache access already ran (and
// missed) but whose timing request was rejected by a full port; the retry
// must not repeat the functional access, which would now hit.
const needsMemSentinel = ^uint64(0)

// access performs the cache access for a ready op and transitions it.
func (c *Core) access(s *slot, seq, now uint64) {
	if s.op.Kind == mem.Write {
		// Stores retire through the store buffer: account the cache
		// effects (allocation + dirty evictions) but never stall. A
		// store miss still fetches its line (write-allocate) as a
		// non-blocking fill read through the prefetch engine.
		res := c.hier.Access(s.op.Addr, true)
		c.wbQueue.push(res.Writebacks...)
		if c.pf != nil && res.Level >= 2 {
			c.pfPending.buf = c.pf.onMiss(c.pfPending.buf, s.op.Addr/64)
		}
		if res.MissToMem {
			c.fillPending.push(s.op.Addr / 64)
		}
		s.status = stDone
		s.completion = now
		return
	}
	// Loads that need memory must claim an MSHR and a queue slot; stay
	// Ready and retry next cycle when either is unavailable.
	if c.outstanding >= c.cfg.MSHRs {
		return
	}
	if s.reqID != needsMemSentinel {
		res := c.hier.Access(s.op.Addr, false)
		c.wbQueue.push(res.Writebacks...)
		// Train the stream prefetcher on every L1 miss — including hits
		// on previously prefetched lines in L2/L3, otherwise a covered
		// stream would stop advancing and stall itself.
		if c.pf != nil && res.Level >= 2 {
			c.pfPending.buf = c.pf.onMiss(c.pfPending.buf, s.op.Addr/64)
		}
		if !res.MissToMem {
			s.status = stDone
			s.completion = now + res.Latency
			return
		}
		s.reqID = needsMemSentinel
	}
	id := c.alloc()
	req := mem.Request{ID: id, Addr: s.op.Addr, Kind: mem.Read, Domain: c.domain, Issue: now}
	if !c.port.TryEnqueue(req, now) {
		return // port full: retry next cycle without re-accessing caches
	}
	s.status = stInMem
	s.reqID = id
	c.reads[id] = seq
	c.outstanding++
	c.stats.MemReads++
}

func (c *Core) flushWritebacks(now uint64) {
	lines := c.wbQueue.lines()
	n := 0
	for n < len(lines) {
		req := mem.Request{ID: c.alloc(), Addr: lines[n], Kind: mem.Write, Domain: c.domain, Issue: now}
		if !c.port.TryEnqueue(req, now) {
			break
		}
		n++
		c.stats.Writebacks++
	}
	c.wbQueue.consume(n)
}

func (c *Core) retire(now uint64) {
	budget := c.cfg.IssueWidth
	retired := 0
	for budget > 0 && c.baseSeq < c.nextSeq {
		head := &c.ring[c.baseSeq&c.mask]
		if head.gapLeft > 0 {
			n := head.gapLeft
			if n > budget {
				n = budget
			}
			head.gapLeft -= n
			budget -= n
			retired += n
			continue
		}
		if head.status != stDone || head.completion > now {
			break
		}
		budget--
		retired++
		c.stats.MemOps++
		c.instCount -= head.op.Gap + 1
		c.baseSeq++
	}
	c.stats.Instructions += uint64(retired)
	if retired == 0 {
		c.stats.StallCycles++
		c.mx.Inc(obs.CtrROBStallCycles, int(c.domain))
	} else {
		c.mx.Add(obs.CtrRetired, int(c.domain), uint64(retired))
	}
}

// RetiredResponseError reports a memory completion for an instruction that
// already retired — a protocol violation: the core never retires a load
// before its response arrives, so a late duplicate or corrupted response ID
// is the only way here.
type RetiredResponseError struct {
	// Domain is the core's security domain, ID the response's request ID.
	Domain mem.Domain
	ID     uint64
	// Seq is the retired instruction sequence number, Base the oldest
	// in-window sequence at the time of the violation.
	Seq, Base uint64
}

// Error implements error.
func (e *RetiredResponseError) Error() string {
	return fmt.Sprintf("cpu: domain %d response %d for retired op seq %d (base %d)", e.Domain, e.ID, e.Seq, e.Base)
}

// OnResponse delivers a memory read completion to the core. Prefetch
// completions fill L2/L3; unknown IDs (e.g. write completions, which the
// core does not track) are ignored. A response for an already-retired
// instruction is a protocol violation reported as *RetiredResponseError.
func (c *Core) OnResponse(resp mem.Response, now uint64) error {
	for i, f := range c.pfInFlight {
		if f.id == resp.ID {
			last := len(c.pfInFlight) - 1
			c.pfInFlight[i] = c.pfInFlight[last]
			c.pfInFlight = c.pfInFlight[:last]
			c.wbQueue.push(c.hier.PrefetchFill(f.line * 64)...)
			return nil
		}
	}
	seq, ok := c.reads[resp.ID]
	if !ok {
		return nil
	}
	delete(c.reads, resp.ID)
	if seq < c.baseSeq {
		return &RetiredResponseError{Domain: c.domain, ID: resp.ID, Seq: seq, Base: c.baseSeq}
	}
	s := &c.ring[seq&c.mask]
	s.status = stDone
	s.completion = now
	c.outstanding--
	return nil
}

// Outstanding returns in-flight memory reads.
func (c *Core) Outstanding() int { return c.outstanding }

// lineQueue is a FIFO of cache lines drained through a head cursor. A
// drain that consumes nothing costs nothing; the consumed prefix is
// dropped only once it is at least half the buffer, so each line is
// copied at most once on average however long the backlog grows.
type lineQueue struct {
	buf  []uint64
	head int
}

// lines returns the queued lines, oldest first.
func (q *lineQueue) lines() []uint64 { return q.buf[q.head:] }

func (q *lineQueue) push(lines ...uint64) { q.buf = append(q.buf, lines...) }

// consume drops the n oldest lines.
func (q *lineQueue) consume(n int) {
	q.head += n
	if 2*q.head >= len(q.buf) {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
}

// reset replaces the contents with lines.
func (q *lineQueue) reset(lines []uint64) {
	q.buf, q.head = append(q.buf[:0], lines...), 0
}
