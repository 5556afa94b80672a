package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"dagguise/internal/config"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
)

// everyCycle hides a policy's wake cycle: it always reports now+1, so the
// controller behind it consults the policy on every cycle with work
// queued. It is the reference the wake-skipping controller must match.
type everyCycle struct{ memctrl.Scheduler }

func (e everyCycle) Pick(q memctrl.Queue, now uint64, dev *dram.Device) (int, uint64) {
	idx, _ := e.Scheduler.Pick(q, now, dev)
	return idx, now + 1
}

// wakeProbe passes a policy through unchanged while counting its calls
// and remembering the last wake it promised.
type wakeProbe struct {
	memctrl.Scheduler
	calls    int
	lastWake uint64
}

func (w *wakeProbe) Pick(q memctrl.Queue, now uint64, dev *dram.Device) (int, uint64) {
	w.calls++
	idx, wake := w.Scheduler.Pick(q, now, dev)
	if idx < 0 {
		w.lastWake = wake
	} else {
		w.lastWake = 0
	}
	return idx, wake
}

// schedStats reads a secure arbiter's slot counters (zero for the
// stateless insecure policies).
func schedStats(s memctrl.Scheduler) Stats {
	if st, ok := s.(interface{ Stats() Stats }); ok {
		return st.Stats()
	}
	return Stats{}
}

// TestWakeSkippingMatchesEveryCyclePick drives two controllers with the
// same random traffic: one skips Pick until the policy's wake cycle, the
// other picks every cycle. Issue order and timing (the controller state,
// compared every cycle), the response stream and both layers' counters
// must be identical, for every policy. The traffic has idle gaps and
// bursts to busy banks, so enqueues land inside skipped spans, and the
// run crosses several refresh windows.
func TestWakeSkippingMatchesEveryCyclePick(t *testing.T) {
	tm := config.DDR31600()
	groups := []Group{{1}, {2}, {3}}
	cases := []struct {
		name string
		mk   func() memctrl.Scheduler
	}{
		{"fcfs", func() memctrl.Scheduler { return memctrl.FCFS{} }},
		{"fr-fcfs", func() memctrl.Scheduler { return memctrl.FRFCFS{} }},
		{"fr-fcfs-write-pressure", func() memctrl.Scheduler { return memctrl.FRFCFS{WritePressure: 3, AgeCap: 400} }},
		{"fs", func() memctrl.Scheduler { return NewFixedService(tm, groups) }},
		{"fs-bta", func() memctrl.Scheduler { return NewFSBTA(tm, groups) }},
		{"tp", func() memctrl.Scheduler { return NewTemporalPartitioning(tm, groups, 0) }},
		{"filtered", func() memctrl.Scheduler {
			return memctrl.DomainFiltered{Inner: memctrl.FRFCFS{}, Allow: func(d mem.Domain) bool { return d != 3 }}
		}},
	}
	const cycles = 80000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mem.MustMapper(mem.Geometry{Channels: 1, Ranks: 1, Banks: 8, RowBytes: 8 << 10, LineBytes: 64, CapacityGiB: 4})
			build := func(s memctrl.Scheduler) *memctrl.Controller {
				c := memctrl.New(dram.New(tm, m, true), m, s, 24)
				c.PartitionQueue(8)
				return c
			}
			refPolicy, probe := tc.mk(), &wakeProbe{Scheduler: tc.mk()}
			ref, lazy := build(everyCycle{refPolicy}), build(probe)
			rnd := rand.New(rand.NewSource(7))
			var id uint64
			skippedEnqueues := 0
			for now := uint64(0); now < cycles; now++ {
				// Alternate bursty and idle phases of ~2k cycles.
				rate := 4
				if (now/2048)%3 == 2 {
					rate = 400
				}
				if rnd.Intn(rate) == 0 {
					id++
					req := mem.Request{
						ID:       id,
						Addr:     m.AddrForBank(rnd.Intn(4), uint64(rnd.Intn(3)), rnd.Intn(8)),
						Domain:   mem.Domain(1 + rnd.Intn(3)),
						Prefetch: rnd.Intn(5) == 0,
					}
					if rnd.Intn(3) == 0 {
						req.Kind = mem.Write
					}
					if lazy.QueueLen() > 0 && now < probe.lastWake {
						skippedEnqueues++
					}
					if a, b := ref.Enqueue(req, now), lazy.Enqueue(req, now); a != b {
						t.Fatalf("cycle %d: enqueue accepted %v by the reference, %v with wake skipping", now, a, b)
					}
				}
				want, got := ref.Tick(now), lazy.Tick(now)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("cycle %d: responses %v, want %v", now, got, want)
				}
				if a, b := ref.SaveState(), lazy.SaveState(); !reflect.DeepEqual(a, b) {
					t.Fatalf("cycle %d: controller state diverged\nwant %+v\ngot  %+v", now, a, b)
				}
				// The arbiter's checkpointed slot state must not notice
				// the skipped calls either.
				if rs, ok := refPolicy.(StatefulScheduler); ok {
					if a, b := rs.SaveState(), probe.Scheduler.(StatefulScheduler).SaveState(); a != b {
						t.Fatalf("cycle %d: arbiter state %+v, want %+v", now, b, a)
					}
				}
			}
			if a, b := ref.Stats(), lazy.Stats(); a != b || a.Issued == 0 {
				t.Fatalf("memctrl stats %+v, want %+v (non-zero)", b, a)
			}
			if a, b := schedStats(refPolicy), schedStats(probe.Scheduler); a != b {
				t.Fatalf("sched stats %+v, want %+v", b, a)
			}
			if probe.calls*2 > cycles {
				t.Fatalf("wake skipping still picked on %d of %d cycles", probe.calls, cycles)
			}
			if skippedEnqueues == 0 {
				t.Fatal("no enqueue landed inside a skipped span; the traffic does not exercise Enqueue's wake lowering")
			}
		})
	}
}
