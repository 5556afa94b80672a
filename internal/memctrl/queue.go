package memctrl

import "dagguise/internal/mem"

// none terminates the queue's linked lists.
const none = -1

// qslot is one transaction-queue entry: the entry itself, its arrival
// sequence number, and its links in the arrival-order list and in its
// bank's list.
type qslot struct {
	Entry
	seq          uint64
	prev, next   int32 // arrival order
	bprev, bnext int32 // arrival order within the bank
	bank         int32
}

// bankList is one flat bank's entries, oldest first. pos is the bank's
// index in queue.active, or none while the bank holds no entries.
type bankList struct {
	head, tail int32
	pos        int32
}

// queue is the controller's transaction queue. Entries live in a slab of
// slots recycled through a free list, threaded on two doubly linked lists:
// one in arrival order, one per flat bank. Enqueue and issue are O(1):
// removing an entry unlinks it, so nothing is shifted. active lists the
// flat banks that hold entries, so a scheduler visits only those.
type queue struct {
	slots      []qslot
	free       []int32
	head, tail int32
	n          int
	writes     int // queued writes, for FR-FCFS write draining
	seq        uint64
	banks      []bankList
	active     []int32
}

func newQueue(banks int) queue {
	q := queue{head: none, tail: none, banks: make([]bankList, banks)}
	for i := range q.banks {
		q.banks[i] = bankList{head: none, tail: none, pos: none}
	}
	return q
}

// push appends an entry for the given flat bank at the arrival tail.
func (q *queue) push(e Entry, bank int) {
	var i int32
	if n := len(q.free); n > 0 {
		i = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		i = int32(len(q.slots))
		q.slots = append(q.slots, qslot{})
	}
	b := &q.banks[bank]
	s := &q.slots[i]
	s.Entry = e
	s.seq, s.bank = q.seq, int32(bank)
	s.prev, s.next, s.bprev, s.bnext = q.tail, none, b.tail, none
	q.seq++
	if q.tail != none {
		q.slots[q.tail].next = i
	} else {
		q.head = i
	}
	q.tail = i
	if b.tail != none {
		q.slots[b.tail].bnext = i
	} else {
		b.head = i
		b.pos = int32(len(q.active))
		q.active = append(q.active, int32(bank))
	}
	b.tail = i
	q.n++
	if e.Req.Kind == mem.Write {
		q.writes++
	}
}

// remove unlinks slot i and returns its entry.
func (q *queue) remove(i int) Entry {
	s := &q.slots[i]
	if s.prev != none {
		q.slots[s.prev].next = s.next
	} else {
		q.head = s.next
	}
	if s.next != none {
		q.slots[s.next].prev = s.prev
	} else {
		q.tail = s.prev
	}
	b := &q.banks[s.bank]
	if s.bprev != none {
		q.slots[s.bprev].bnext = s.bnext
	} else {
		b.head = s.bnext
	}
	if s.bnext != none {
		q.slots[s.bnext].bprev = s.bprev
	} else {
		b.tail = s.bprev
	}
	if b.head == none {
		// Swap the last active bank into the emptied bank's place.
		last := q.active[len(q.active)-1]
		q.active[b.pos] = last
		q.banks[last].pos = b.pos
		q.active = q.active[:len(q.active)-1]
		b.pos = none
	}
	q.n--
	if s.Req.Kind == mem.Write {
		q.writes--
	}
	q.free = append(q.free, int32(i))
	return s.Entry
}

// reset empties the queue, keeping its storage.
func (q *queue) reset() {
	for _, b := range q.active {
		q.banks[b] = bankList{head: none, tail: none, pos: none}
	}
	q.slots, q.free, q.active = q.slots[:0], q.free[:0], q.active[:0]
	q.head, q.tail, q.n, q.writes, q.seq = none, none, 0, 0, 0
}

// Queue is a scheduler's read-only view of the controller's transaction
// queue, optionally narrowed to the domains an allow filter admits. An
// entry is named by a handle, an int valid until the queue changes; none
// (-1) ends every walk.
//
// Two walks are offered. Head/Next visit the entries in arrival order.
// Banks/BankHead/BankNext visit only the flat banks holding entries, and
// each bank's entries oldest first; Seq orders entries across banks by
// arrival. Filtered-out entries are invisible to both walks and to Writes.
type Queue struct {
	q     *queue
	allow func(mem.Domain) bool // nil: every domain
}

// Filter returns the view narrowed to the domains allow admits (and the
// view's own filter, if any).
func (v Queue) Filter(allow func(mem.Domain) bool) Queue {
	if v.allow != nil {
		outer := v.allow
		inner := allow
		allow = func(d mem.Domain) bool { return outer(d) && inner(d) }
	}
	return Queue{q: v.q, allow: allow}
}

// Entry returns the entry behind handle i. The entry must not be modified.
func (v Queue) Entry(i int) *Entry { return &v.q.slots[i].Entry }

// Seq returns the arrival sequence number of handle i: an entry that
// arrived earlier has a smaller Seq.
func (v Queue) Seq(i int) uint64 { return v.q.slots[i].seq }

// Head returns the oldest visible entry, or -1.
func (v Queue) Head() int { return v.skip(v.q.head) }

// Next returns the next visible entry after i in arrival order, or -1.
func (v Queue) Next(i int) int { return v.skip(v.q.slots[i].next) }

func (v Queue) skip(i int32) int {
	for v.allow != nil && i != none && !v.allow(v.q.slots[i].Req.Domain) {
		i = v.q.slots[i].next
	}
	return int(i)
}

// Banks returns the flat banks (mem.Mapper.FlatBank) that hold queued
// entries, in no particular order. Under a filter a listed bank may hold
// no visible entry.
func (v Queue) Banks() []int32 { return v.q.active }

// BankHead returns the oldest visible entry of flat bank b, or -1.
func (v Queue) BankHead(b int32) int { return v.bankSkip(v.q.banks[b].head) }

// BankNext returns the next visible entry after i in i's bank, or -1.
func (v Queue) BankNext(i int) int { return v.bankSkip(v.q.slots[i].bnext) }

func (v Queue) bankSkip(i int32) int {
	for v.allow != nil && i != none && !v.allow(v.q.slots[i].Req.Domain) {
		i = v.q.slots[i].bnext
	}
	return int(i)
}

// Writes returns the number of visible queued writes.
func (v Queue) Writes() int {
	if v.allow == nil {
		return v.q.writes
	}
	n := 0
	for i := v.Head(); i != none; i = v.Next(i) {
		if v.q.slots[i].Req.Kind == mem.Write {
			n++
		}
	}
	return n
}
