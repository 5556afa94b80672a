package memctrl

import (
	"dagguise/internal/dram"
	"dagguise/internal/mem"
)

// FCFS is strict first-come-first-served scheduling: only the oldest
// transaction may issue, and only once its bank is free. This is the policy
// used by the simplified memory controller of the formal model (§5.1).
type FCFS struct{}

// Name implements Scheduler.
func (FCFS) Name() string { return "fcfs" }

// Pick implements Scheduler. It wakes when the head's bank frees.
func (FCFS) Pick(q Queue, now uint64, dev *dram.Device) (int, uint64) {
	head := q.Head()
	if head < 0 {
		return -1, Never
	}
	if free := dev.BankBusyUntil(q.Entry(head).Coord); free > now {
		return -1, free
	}
	return head, 0
}

// FRFCFS is first-ready FCFS, the insecure baseline policy: among
// transactions whose bank is free it prefers row-buffer hits, breaking ties
// by age; if no row hit is ready it issues the oldest ready transaction.
type FRFCFS struct {
	// WritePressure optionally prioritises writes when more than this many
	// are queued, modelling write-buffer draining. Zero disables it.
	WritePressure int
	// AgeCap bounds reordering: a ready demand request older than this
	// many cycles is served first regardless of row-hit status, the
	// standard FR-FCFS starvation guard. Zero selects the default.
	AgeCap uint64
}

// defaultAgeCap bounds FR-FCFS reordering (CPU cycles).
const defaultAgeCap = 1500

// Name implements Scheduler.
func (FRFCFS) Name() string { return "fr-fcfs" }

// Pick implements Scheduler. Demand traffic outranks prefetch traffic;
// within each class, row hits outrank older requests. It wakes at the
// earliest cycle a bank of an eligible entry frees.
//
// The walk visits only banks holding eligible entries. A busy bank costs
// one lookup. A free bank ranks its entries oldest first and stops at
// the first rank-0 entry, so it yields its best (rank, arrival) pair; the
// minimum over banks is the entry a scan of the whole queue in arrival
// order would pick first.
func (p FRFCFS) Pick(q Queue, now uint64, dev *dram.Device) (int, uint64) {
	drainWrites := p.WritePressure > 0 && q.Writes() >= p.WritePressure
	ageCap := p.AgeCap
	if ageCap == 0 {
		ageCap = defaultAgeCap
	}
	// Candidate ranks, best first: starved (over the age cap), demand
	// row-hit, demand, prefetch row-hit, prefetch. Ties go to the oldest.
	best := -1
	bestRank := 5
	var bestSeq uint64
	wake := Never
	for _, b := range q.Banks() {
		i := q.BankHead(b)
		for drainWrites && i >= 0 && q.Entry(i).Req.Kind != mem.Write {
			i = q.BankNext(i)
		}
		if i < 0 {
			continue
		}
		if free := dev.FlatBankBusyUntil(int(b)); free > now {
			wake = min(wake, free)
			continue
		}
		for ; i >= 0; i = q.BankNext(i) {
			e := q.Entry(i)
			if drainWrites && e.Req.Kind != mem.Write {
				continue
			}
			rank := 2
			if e.Req.Prefetch {
				rank = 4
			}
			if dev.RowOpen(e.Coord) {
				rank--
			}
			age := now - e.Req.Arrival
			if age > ageCap && (!e.Req.Prefetch || age > 4*ageCap) {
				rank = 0
			}
			if rank < bestRank || (rank == bestRank && q.Seq(i) < bestSeq) {
				best, bestRank, bestSeq = i, rank, q.Seq(i)
			}
			if rank == 0 {
				break
			}
		}
	}
	return best, wake
}

// DomainFiltered wraps a policy so that only requests from an allowed set
// of domains are eligible. It is used by the temporal-partitioning arbiter
// and by tests that isolate one domain's traffic.
type DomainFiltered struct {
	Inner Scheduler
	Allow func(mem.Domain) bool
}

// Name implements Scheduler.
func (d DomainFiltered) Name() string { return d.Inner.Name() + "+filter" }

// Pick implements Scheduler. The inner policy sees the queue through the
// filter, so the handle it returns needs no translation. It wakes when the
// inner policy does; with no allowed entry queued it waits for the queue
// to change.
func (d DomainFiltered) Pick(q Queue, now uint64, dev *dram.Device) (int, uint64) {
	return d.Inner.Pick(q.Filter(d.Allow), now, dev)
}
