package memctrl

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
)

// flatFRFCFS is FR-FCFS as one scan of the whole queue in arrival order,
// counting the writes first: the pick the bank walk replaced, kept as
// its reference.
type flatFRFCFS struct{ FRFCFS }

func (p flatFRFCFS) Pick(q Queue, now uint64, dev *dram.Device) (int, uint64) {
	writes := 0
	for i := q.Head(); i >= 0; i = q.Next(i) {
		if q.Entry(i).Req.Kind == mem.Write {
			writes++
		}
	}
	drainWrites := p.WritePressure > 0 && writes >= p.WritePressure
	ageCap := p.AgeCap
	if ageCap == 0 {
		ageCap = defaultAgeCap
	}
	best := -1
	bestRank := 5
	wake := Never
	for i := q.Head(); i >= 0; i = q.Next(i) {
		e := q.Entry(i)
		if drainWrites && e.Req.Kind != mem.Write {
			continue
		}
		if free := dev.BankBusyUntil(e.Coord); free > now {
			if free < wake {
				wake = free
			}
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
		if rank < bestRank {
			bestRank = rank
			best = i
			if rank == 0 {
				break
			}
		}
	}
	return best, wake
}

// pick is one Pick call as the controller saw it: the picked request's
// ID (0 for none) and, when nothing was picked, the promised wake.
type pick struct {
	now, id, wake uint64
}

// pickLog records every Pick call of the policy it wraps, plus how often
// the pick served a starved entry and how often writes were draining.
type pickLog struct {
	Scheduler
	pressure int
	ageCap   uint64
	picks    []pick
	starved  int
	draining int
}

func (l *pickLog) Pick(q Queue, now uint64, dev *dram.Device) (int, uint64) {
	if l.pressure > 0 && q.Writes() >= l.pressure {
		l.draining++
	}
	idx, wake := l.Scheduler.Pick(q, now, dev)
	p := pick{now: now}
	if idx >= 0 {
		e := q.Entry(idx)
		p.id = e.Req.ID
		if now-e.Req.Arrival > l.ageCap {
			l.starved++
		}
	} else {
		p.wake = wake
	}
	l.picks = append(l.picks, p)
	return idx, wake
}

// TestBankIndexedFRFCFSMatchesFlatScan drives a controller running the
// bank walk and one running the flat scan with the same random bursty
// traffic. Every Pick (the request it chose, or the wake it promised),
// the responses, the controller state every 64 cycles and the final Stats
// must agree. The cases cover write draining, age-cap starvation, a
// prefetch/demand mix, the domain filter temporal partitioning applies
// (with and without write draining), open and closed rows, and enqueues
// that land while the controller is skipping picks.
func TestBankIndexedFRFCFSMatchesFlatScan(t *testing.T) {
	allow := func(d mem.Domain) bool { return d != 2 }
	cases := []struct {
		name   string
		policy FRFCFS
		filter bool
		closed bool
	}{
		{"default", FRFCFS{}, false, false},
		{"closed-row", FRFCFS{}, false, true},
		{"write-pressure", FRFCFS{WritePressure: 4, AgeCap: 400}, false, false},
		{"age-cap", FRFCFS{AgeCap: 120}, false, false},
		{"filtered", FRFCFS{}, true, false},
		{"filtered-write-pressure", FRFCFS{WritePressure: 3, AgeCap: 200}, true, true},
	}
	const cycles = 60_000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ageCap := tc.policy.AgeCap
			if ageCap == 0 {
				ageCap = defaultAgeCap
			}
			m := mem.MustMapper(mem.Geometry{Channels: 1, Ranks: 2, Banks: 8, RowBytes: 8 << 10, LineBytes: 64, CapacityGiB: 4})
			build := func(s Scheduler) (*Controller, *pickLog) {
				log := &pickLog{Scheduler: s, pressure: tc.policy.WritePressure, ageCap: ageCap}
				var policy Scheduler = log
				if tc.filter {
					policy = DomainFiltered{Inner: log, Allow: allow}
				}
				c := New(dram.New(config.DDR31600(), m, tc.closed), m, policy, 96)
				c.PartitionQueue(32)
				return c, log
			}
			ref, refLog := build(flatFRFCFS{tc.policy})
			got, gotLog := build(tc.policy)
			rnd := rand.New(rand.NewSource(11))
			var id uint64
			skippedEnqueues := 0
			for now := uint64(0); now < cycles; now++ {
				// Bursty phases of ~1k cycles with idle gaps between them.
				rate := 3
				if (now/1024)%4 == 3 {
					rate = 300
				}
				for k := 0; k < 2; k++ {
					if rnd.Intn(rate) != 0 {
						continue
					}
					id++
					req := mem.Request{
						ID:       id,
						Addr:     m.AddrForBank(rnd.Intn(m.BankCount()), uint64(rnd.Intn(3)), rnd.Intn(64)),
						Domain:   mem.Domain(1 + rnd.Intn(3)),
						Prefetch: rnd.Intn(4) == 0,
					}
					if rnd.Intn(4) == 0 {
						req.Kind = mem.Write
					}
					if got.QueueLen() > 0 && now < got.wake {
						skippedEnqueues++
					}
					if a, b := ref.Enqueue(req, now), got.Enqueue(req, now); a != b {
						t.Fatalf("cycle %d: enqueue accepted %v by the flat scan, %v by the bank walk", now, a, b)
					}
				}
				want, have := ref.Tick(now), got.Tick(now)
				if !reflect.DeepEqual(want, have) {
					t.Fatalf("cycle %d: responses %v, want %v", now, have, want)
				}
				if len(refLog.picks) != len(gotLog.picks) {
					t.Fatalf("cycle %d: %d picks by the bank walk, %d by the flat scan", now, len(gotLog.picks), len(refLog.picks))
				}
				if n := len(refLog.picks); n > 0 && refLog.picks[n-1] != gotLog.picks[n-1] {
					t.Fatalf("cycle %d: bank walk %+v, flat scan %+v", now, gotLog.picks[n-1], refLog.picks[n-1])
				}
				if now%64 != 0 {
					continue
				}
				if a, b := ref.SaveState(), got.SaveState(); !reflect.DeepEqual(a, b) {
					t.Fatalf("cycle %d: controller state diverged\nwant %+v\ngot  %+v", now, a, b)
				}
			}
			if a, b := ref.Stats(), got.Stats(); a != b || a.Issued == 0 {
				t.Fatalf("stats %+v, want %+v (non-zero)", b, a)
			}
			checks := []struct {
				what string
				n    int
				want bool
			}{
				{"enqueues inside a skipped span", skippedEnqueues, true},
				{"picks that found nothing to issue", countIdle(gotLog.picks), true},
				{"starved picks", gotLog.starved, tc.policy.AgeCap > 0 && tc.policy.AgeCap < 300},
				{"picks while draining writes", gotLog.draining, tc.policy.WritePressure > 0},
			}
			for _, c := range checks {
				if c.want && c.n == 0 {
					t.Errorf("the traffic made no %s; the case does not cover it", c.what)
				}
			}
		})
	}
}

func countIdle(picks []pick) int {
	n := 0
	for _, p := range picks {
		if p.id == 0 {
			n++
		}
	}
	return n
}

// TestQueueBankIndex checks the queue's two orders after a random mix of
// pushes and removals: the arrival list holds the live entries oldest
// first, each bank list holds exactly that bank's entries oldest first,
// the active set names exactly the non-empty banks, and the write count
// matches.
func TestQueueBankIndex(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	const banks = 6
	q := newQueue(banks)
	type live struct {
		id   uint64
		bank int
	}
	var model []live
	var id uint64
	for op := 0; op < 20_000; op++ {
		if len(model) == 0 || rnd.Intn(9) < 5 {
			id++
			bank := rnd.Intn(banks)
			kind := mem.Read
			if id%3 == 0 {
				kind = mem.Write
			}
			q.push(Entry{Req: mem.Request{ID: id, Kind: kind}}, bank)
			model = append(model, live{id, bank})
		} else {
			k := rnd.Intn(len(model))
			v := Queue{q: &q}
			h := v.Head()
			for n := 0; n < k; n++ {
				h = v.Next(h)
			}
			if e := q.remove(h); e.Req.ID != model[k].id {
				t.Fatalf("op %d: removed %d, want %d", op, e.Req.ID, model[k].id)
			}
			model = append(model[:k], model[k+1:]...)
		}
		if op%97 == 0 {
			q.reset()
			model = model[:0]
		}
		v := Queue{q: &q}
		var order []uint64
		writes := 0
		for i := v.Head(); i >= 0; i = v.Next(i) {
			order = append(order, v.Entry(i).Req.ID)
			if v.Entry(i).Req.Kind == mem.Write {
				writes++
			}
		}
		var want []uint64
		perBank := make([][]uint64, banks)
		for _, l := range model {
			want = append(want, l.id)
			perBank[l.bank] = append(perBank[l.bank], l.id)
		}
		if fmt.Sprint(order) != fmt.Sprint(want) || q.n != len(model) || v.Writes() != writes {
			t.Fatalf("op %d: arrival order %v (n=%d, writes %d/%d), want %v", op, order, q.n, v.Writes(), writes, want)
		}
		active := map[int32]bool{}
		for _, b := range v.Banks() {
			active[b] = true
		}
		for b := 0; b < banks; b++ {
			var got []uint64
			for i := v.BankHead(int32(b)); i >= 0; i = v.BankNext(i) {
				got = append(got, v.Entry(i).Req.ID)
			}
			if fmt.Sprint(got) != fmt.Sprint(perBank[b]) || active[int32(b)] != (len(perBank[b]) > 0) {
				t.Fatalf("op %d: bank %d holds %v (active %v), want %v", op, b, got, active[int32(b)], perBank[b])
			}
		}
		if len(v.Banks()) != len(active) {
			t.Fatalf("op %d: active list %v repeats a bank", op, v.Banks())
		}
	}
}
