// Package memctrl implements the shared memory controller: a global
// transaction queue in front of the DRAM device, a pluggable scheduling
// policy (FCFS, FR-FCFS, or one of the secure arbiters from
// internal/sched), and the response path back to the cores and shapers.
//
// The controller is the contention point that memory timing side channels
// exploit: requests from different security domains meet in the transaction
// queue, compete for banks and the shared data bus, and their completion
// times depend on each other's presence (Figure 1 of the paper).
package memctrl

import (
	"fmt"

	"dagguise/internal/dram"
	"dagguise/internal/mem"
	"dagguise/internal/obs"
)

// Entry is a queued transaction together with its decoded DRAM coordinate.
type Entry struct {
	Req   mem.Request
	Coord mem.Coord
}

// Never is the wake cycle of a scheduler that cannot issue anything from
// the current queue until the queue itself changes.
const Never = ^uint64(0)

// Scheduler picks the next transaction to commit to the DRAM device.
// Implementations include the insecure FCFS/FR-FCFS policies in this
// package and the secure FS / FS-BTA / TP arbiters in internal/sched.
type Scheduler interface {
	// Pick returns the handle in q of the transaction to issue at cycle
	// now, or -1 if none may issue this cycle. q views the current
	// transaction queue, in arrival order and by bank; dev exposes
	// bank/row state.
	//
	// When idx is -1, wake is the earliest cycle at which a call could
	// return a handle or update the scheduler's own state, provided q
	// and dev do not change in between; the controller does not call
	// Pick again before it. wake is ignored when idx >= 0.
	Pick(q Queue, now uint64, dev *dram.Device) (idx int, wake uint64)
	// Name identifies the policy in stats output.
	Name() string
}

type completion struct {
	at   uint64
	resp mem.Response
}

// completionHeap is a min-heap on completion cycle. push and pop follow
// container/heap's sift order exactly: the backing array is checkpointed
// verbatim, so its layout is part of the state encoding.
type completionHeap []completion

func (h *completionHeap) push(x completion) {
	*h = append(*h, x)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if q[j].at >= q[i].at {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *completionHeap) pop() completion {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].at < q[j].at {
			j = j2
		}
		if q[j].at >= q[i].at {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	x := q[n]
	*h = q[:n]
	return x
}

// Stats aggregates controller-level counters.
type Stats struct {
	Issued        uint64
	Reads         uint64
	Writes        uint64
	Fakes         uint64
	TotalLatency  uint64 // sum of (completion - arrival) over real requests
	TotalQueueing uint64 // sum of (issue start - arrival)
	BytesServed   uint64
	MaxQueueLen   int
}

// Controller is the memory controller for one channel group.
type Controller struct {
	dev       *dram.Device
	mapper    *mem.Mapper
	sched     Scheduler
	queue     queue
	capacity  int
	domainCap int   // per-domain queue partition; 0 = shared queue
	perDomain []int // queued transactions, indexed by domain
	inflight  completionHeap
	stats     Stats
	byDomain  []uint64 // real bytes served, indexed by domain
	lineSize  uint64
	out       []mem.Response // drain's result, reused across ticks

	// wake is the scheduler's promise from its last -1 pick: Pick cannot
	// issue (or change its own state) before this cycle. Enqueue lowers
	// it, issue and RestoreState clear it. Derived state, never saved.
	wake uint64

	// Observability (nil = off). The controller attributes per-domain
	// DRAM metrics because it is the last point that knows the request's
	// security domain. Measurement only: never consulted by Pick/issue.
	mx    *obs.Registry
	tr    *obs.Tracer
	prof  *obs.CycleProfile
	burst uint64 // cached data-burst length for bus accounting
}

// New builds a controller over the device with the given scheduling policy
// and transaction queue capacity (entries).
func New(dev *dram.Device, mapper *mem.Mapper, sched Scheduler, capacity int) *Controller {
	if capacity <= 0 {
		capacity = 32
	}
	return &Controller{
		dev:      dev,
		mapper:   mapper,
		sched:    sched,
		queue:    newQueue(mapper.BankCount()),
		capacity: capacity,
		lineSize: uint64(mapper.Geometry().LineBytes),
	}
}

// PartitionQueue switches the transaction queue to per-domain accounting:
// each domain may hold at most perDomain entries, independent of other
// domains' occupancy. Secure schemes require this — with a shared queue, a
// victim's bursts back-pressure the attacker's enqueues, leaking timing
// through queue-full signals even under a non-interfering scheduler.
func (c *Controller) PartitionQueue(perDomain int) {
	c.domainCap = perDomain
	c.perDomain = c.perDomain[:0]
}

// growFor returns s extended with zeros so that s[d] is valid. The
// per-domain slices grow on demand because domains are dense but their
// count is not known up front (a Cluster channel serves 100+ tenants).
func growFor[T int | uint64](s []T, d mem.Domain) []T {
	if int(d) < len(s) {
		return s
	}
	return append(s, make([]T, int(d)+1-len(s))...)
}

// Observe attaches an observability registry and tracer (either may be
// nil) to the controller and its device.
func (c *Controller) Observe(mx *obs.Registry, tr *obs.Tracer) {
	c.mx = mx
	c.tr = tr
	c.burst = c.dev.Timing().Burst
	c.dev.Observe(mx, tr)
}

// Profile attaches a cycle-attribution profiler (nil = off). The
// controller laps the shared telescoping clock at its interior section
// boundaries: scheduler picks land in PBSched, device service in
// PBDRAM, and the rest of the controller's tick (queue sampling, stats,
// completion heap, drain) in PBMemctrl.
func (c *Controller) Profile(p *obs.CycleProfile) { c.prof = p }

// Device returns the underlying DRAM model.
func (c *Controller) Device() *dram.Device { return c.dev }

// Mapper returns the address mapper in use.
func (c *Controller) Mapper() *mem.Mapper { return c.mapper }

// Scheduler returns the active scheduling policy.
func (c *Controller) Scheduler() Scheduler { return c.sched }

// QueueLen returns the current global transaction queue occupancy.
func (c *Controller) QueueLen() int { return c.queue.n }

// Full reports whether the transaction queue is at capacity.
func (c *Controller) Full() bool { return c.queue.n >= c.capacity }

// FullFor reports whether the domain may not enqueue right now, honouring
// per-domain partitioning when enabled.
func (c *Controller) FullFor(d mem.Domain) bool {
	if c.domainCap > 0 {
		return int(d) < len(c.perDomain) && c.perDomain[d] >= c.domainCap
	}
	return c.queue.n >= c.capacity
}

// InFlight returns the number of committed-but-incomplete transactions.
func (c *Controller) InFlight() int { return len(c.inflight) }

// Idle reports whether the controller has no queued or in-flight work.
func (c *Controller) Idle() bool { return c.queue.n == 0 && len(c.inflight) == 0 }

// Enqueue inserts a request into the global transaction queue. It returns
// false when the queue is full (the producer must retry later). The
// request's Arrival field is stamped with now.
func (c *Controller) Enqueue(req mem.Request, now uint64) bool {
	if c.domainCap > 0 {
		c.perDomain = growFor(c.perDomain, req.Domain)
		if c.perDomain[req.Domain] >= c.domainCap {
			return false
		}
		c.perDomain[req.Domain]++
	} else if c.queue.n >= c.capacity {
		return false
	}
	req.Arrival = now
	coord := c.mapper.Decode(req.Addr)
	c.queue.push(Entry{Req: req, Coord: coord}, c.mapper.FlatBank(coord))
	if free := c.dev.BankBusyUntil(coord); free < c.wake {
		c.wake = free
	}
	if c.queue.n > c.stats.MaxQueueLen {
		c.stats.MaxQueueLen = c.queue.n
	}
	return true
}

// Tick advances the controller one cycle: it lets the scheduling policy
// commit at most one transaction to the device and returns all responses
// that complete at or before now. The policy is consulted only once its
// last wake cycle has arrived. The returned slice is reused by the next
// Tick; callers must not keep it.
func (c *Controller) Tick(now uint64) []mem.Response {
	c.mx.Observe(obs.HistQueueDepth, 0, uint64(c.queue.n))
	if c.queue.n > 0 && now >= c.wake {
		c.prof.Lap(obs.PBMemctrl)
		idx, wake := c.sched.Pick(Queue{q: &c.queue}, now, c.dev)
		c.prof.Lap(obs.PBSched)
		if idx >= 0 {
			c.issue(idx, now)
		} else {
			c.wake = wake
		}
	}
	resps := c.drain(now)
	c.prof.Lap(obs.PBMemctrl)
	return resps
}

func (c *Controller) issue(idx int, now uint64) {
	reordered := idx != int(c.queue.head)
	e := c.queue.remove(idx)
	c.wake = 0
	if c.domainCap > 0 {
		c.perDomain[e.Req.Domain]--
	}
	c.prof.Lap(obs.PBMemctrl)
	res := c.dev.Service(e.Coord, e.Req.Kind, now)
	c.prof.Lap(obs.PBDRAM)
	c.stats.Issued++
	if e.Req.Kind == mem.Write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if e.Req.Fake {
		c.stats.Fakes++
	} else {
		c.stats.BytesServed += c.lineSize
		c.byDomain = growFor(c.byDomain, e.Req.Domain)
		c.byDomain[e.Req.Domain] += c.lineSize
		c.stats.TotalLatency += res.DataDone - e.Req.Arrival
		if res.Start > e.Req.Arrival {
			c.stats.TotalQueueing += res.Start - e.Req.Arrival
		}
	}
	if c.mx != nil || c.tr != nil {
		c.record(e, reordered, res)
	}
	c.inflight.push(completion{
		at: res.DataDone,
		resp: mem.Response{
			ID: e.Req.ID, Addr: e.Req.Addr, Kind: e.Req.Kind,
			Domain: e.Req.Domain, Fake: e.Req.Fake, Completion: res.DataDone,
		},
	})
}

// record mirrors one issued transaction into the observability layer:
// per-domain row-buffer outcome, issue mix, bus/bank occupancy and
// latency histograms, plus bank- and channel-lane trace events. reordered
// marks an issue that passed an older queued entry. Called only when a
// registry or tracer is attached.
func (c *Controller) record(e Entry, reordered bool, res dram.Result) {
	dom := int(e.Req.Domain)
	c.mx.Inc(obs.CtrSchedPicks, 0)
	if reordered {
		c.mx.Inc(obs.CtrSchedReorders, 0)
	}
	var kind obs.EventKind
	switch res.Outcome {
	case dram.RowHit:
		c.mx.Inc(obs.CtrRowHits, dom)
		kind = obs.EvRowHit
	case dram.RowMiss:
		c.mx.Inc(obs.CtrRowMisses, dom)
		kind = obs.EvRowMiss
	default:
		c.mx.Inc(obs.CtrRowConflicts, dom)
		c.mx.Inc(obs.CtrPrecharges, dom)
		kind = obs.EvRowConflict
	}
	if c.dev.ClosedRow() {
		c.mx.Inc(obs.CtrPrecharges, dom)
	}
	switch {
	case e.Req.Fake:
		c.mx.Inc(obs.CtrIssuedFakes, dom)
	case e.Req.Kind == mem.Write:
		c.mx.Inc(obs.CtrIssuedWrites, dom)
	default:
		c.mx.Inc(obs.CtrIssuedReads, dom)
	}
	c.mx.Add(obs.CtrBusBusyCycles, dom, c.burst)
	c.mx.Add(obs.CtrBankBusyCycles, dom, res.DataDone-res.Start)
	if !e.Req.Fake {
		c.mx.Observe(obs.HistReqLatency, dom, res.DataDone-e.Req.Arrival)
		if res.Start > e.Req.Arrival {
			c.mx.Observe(obs.HistQueueWait, dom, res.Start-e.Req.Arrival)
		} else {
			c.mx.Observe(obs.HistQueueWait, dom, 0)
		}
	}
	if c.tr != nil {
		c.tr.Emit(obs.Event{
			Cycle: res.Start, Dur: res.DataDone - res.Start,
			Comp: obs.CompBank, Kind: kind, Index: int32(c.mapper.FlatBank(e.Coord)), Domain: int32(dom),
		})
		c.tr.Emit(obs.Event{
			Cycle: res.DataDone - c.burst, Dur: c.burst,
			Comp: obs.CompChannel, Kind: obs.EvBurst, Index: int32(e.Coord.Channel), Domain: int32(dom),
		})
	}
}

func (c *Controller) drain(now uint64) []mem.Response {
	c.out = c.out[:0]
	for len(c.inflight) > 0 && c.inflight[0].at <= now {
		c.out = append(c.out, c.inflight.pop().resp)
	}
	return c.out
}

// NextEvent returns the earliest cycle, no earlier than now, at which a
// Tick could do anything: the next in-flight completion, or the
// scheduler's wake cycle if transactions are queued. Ticks before it
// neither issue nor complete, so simulation drivers can skip them as long
// as nothing is enqueued meanwhile.
func (c *Controller) NextEvent(now uint64) (uint64, bool) {
	if c.queue.n == 0 && len(c.inflight) == 0 {
		return 0, false
	}
	at := Never
	if len(c.inflight) > 0 {
		at = c.inflight[0].at
	}
	if c.queue.n > 0 && c.wake < at {
		at = c.wake
	}
	if at < now {
		at = now
	}
	return at, true
}

// Stats returns the cumulative counters.
func (c *Controller) Stats() Stats { return c.stats }

// BytesForDomain returns the real (non-fake) bytes served for the domain.
func (c *Controller) BytesForDomain(d mem.Domain) uint64 {
	if int(d) >= len(c.byDomain) {
		return 0
	}
	return c.byDomain[d]
}

// QueueSnapshot returns the per-domain occupancy of the transaction queue,
// for watchdog diagnostics (the queue picture at the moment an invariant
// fails). Domains with no queued requests are absent from the map.
func (c *Controller) QueueSnapshot() map[mem.Domain]int {
	snap := make(map[mem.Domain]int)
	for i := c.queue.head; i != none; i = c.queue.slots[i].next {
		snap[c.queue.slots[i].Req.Domain]++
	}
	return snap
}

// NextCompletion returns the cycle of the earliest in-flight completion,
// or false if nothing is in flight. The watchdog uses it to tell a stalled
// device (completions parked in the far future) from an idle one.
func (c *Controller) NextCompletion() (uint64, bool) {
	if len(c.inflight) == 0 {
		return 0, false
	}
	return c.inflight[0].at, true
}

// PendingForDomain counts queued requests belonging to the domain.
func (c *Controller) PendingForDomain(d mem.Domain) int {
	n := 0
	for i := c.queue.head; i != none; i = c.queue.slots[i].next {
		if c.queue.slots[i].Req.Domain == d {
			n++
		}
	}
	return n
}

// String describes the controller configuration.
func (c *Controller) String() string {
	return fmt.Sprintf("memctrl{%s cap=%d}", c.sched.Name(), c.capacity)
}
