package main

import (
	"bytes"
	"fmt"
	"time"

	"dagguise/internal/eval"
	"dagguise/internal/mem"
	"dagguise/internal/obs"
	"dagguise/internal/sim"
)

// fig9-2core: the paper's headline two-core experiment on a memory-bound,
// a mixed and a compute-bound co-runner, at the window sizes of
// BenchmarkFigure9TwoCore. Figure 9 takes no seed, so its golden holds for
// every run.
var fig9Apps = []string{"lbm", "xz", "leela"}

const (
	fig9Warmup = 50_000
	fig9Window = 600_000
	// fig9Schemes is the number of simulations per app: the insecure
	// baseline, FS-BTA and DAGguise.
	fig9Schemes = 3
)

func fig9Options() eval.Options {
	return eval.Options{Warmup: fig9Warmup, Window: fig9Window, Apps: fig9Apps, Workers: 1}
}

func runFig9(e *env) (*outcome, error) {
	golden, err := e.golden("fig9-2core.txt")
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	// Set-up: build the figure's nine machines, which records the victim
	// trace and wires every core, cache, shaper and controller; a 1k-cycle
	// window leaves construction as nearly all of the cost.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		c, err := measure(nil, func() error {
			_, err := eval.Figure9(eval.Options{Window: 1000, Apps: fig9Apps, Workers: 1})
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.wall.Seconds())
	}
	o.metrics["setup_s"] = median(setups)

	sims := len(fig9Apps) * fig9Schemes
	// op times one Figure9 call; opts runs at the start of the timed
	// interval.
	op := func(opts func() eval.Options) (opCost, error) {
		var res *eval.Figure9Result
		cost, err := measure(e.rss, func() error {
			var err error
			res, err = eval.Figure9(opts())
			return err
		})
		if err != nil {
			return cost, err
		}
		e.logf("Figure9: %.3f s, peak RSS %.1f MB", cost.wall.Seconds(), cost.rssMB)
		bad := 0
		if got := eval.FormatFigure9(res); !bytes.Equal([]byte(got), golden) {
			o.check("Figure 9 output differs from golden/fig9-2core.txt:\n%s", got)
			bad = sims
		} else if res.DAGguiseGeomean <= res.FSBTAGeomean {
			o.check("DAGguise geomean %.3f is not above FS-BTA's %.3f", res.DAGguiseGeomean, res.FSBTAGeomean)
			bad = sims
		}
		o.op(sims, bad)
		return cost, nil
	}

	budget := e.budget
	if e.trace {
		budget /= 2
	}
	var costs []opCost
	if err := repeat(budget, func() error {
		c, err := op(fig9Options)
		costs = append(costs, c)
		return err
	}); err != nil {
		return nil, err
	}
	if !e.trace {
		setThroughput(o, costs, float64(sims*(fig9Warmup+fig9Window)))
		return o, nil
	}
	return o, traceFig9(e, o, op, median(secondsOf(costs)))
}

// fig9Trace collects a traced Figure9 call's systems and row times;
// Workers is 1, so the hooks run on one goroutine.
type fig9Trace struct {
	prof    *obs.CycleProfile
	systems []*sim.System
	rowOpen map[string]time.Time
	rows    map[string]time.Duration
}

// options starts a fresh cycle profile, whose clock then covers the whole
// call: the harness bucket absorbs the victim trace recording and machine
// construction between the systems' tick loops.
func (t *fig9Trace) options() eval.Options {
	t.prof, t.systems = obs.NewCycleProfile(), nil
	opts := fig9Options()
	opts.Attach = func(s *sim.System) {
		s.Profile(t.prof)
		t.systems = append(t.systems, s)
	}
	opts.Row = func(app, event string) {
		switch event {
		case "claim":
			t.rowOpen[app] = time.Now()
		case "done":
			t.rows[app] += time.Since(t.rowOpen[app])
		}
	}
	return opts
}

// traceFig9 spends the rest of the budget in two halves: Figure9 calls
// with the cycle profiler attached to every system, then plain calls
// under a pprof profile (the profiler's clock reads would otherwise
// dominate the runtime's share). It sets the per-layer metrics as means
// per Figure9 call.
func traceFig9(e *env, o *outcome, op func(func() eval.Options) (opCost, error), untraced float64) error {
	t := &fig9Trace{rowOpen: map[string]time.Time{}, rows: map[string]time.Duration{}}
	var walls []float64
	var wall time.Duration
	var bucketNs [obs.NumProfBuckets]int64
	var schedLaps, cycles, stall, coreCycles, issued, fakes, forwarded uint64
	if err := repeat(e.budget/4, func() error {
		c, err := op(t.options)
		if err != nil {
			return err
		}
		walls = append(walls, c.wall.Seconds())
		wall += c.wall
		for b := range bucketNs {
			bucketNs[b] += t.prof.Ns(obs.ProfBucket(b))
		}
		schedLaps += t.prof.Laps(obs.PBSched)
		for _, s := range t.systems {
			cycles += s.Now()
			issued += s.Controller().Stats().Issued
			for d := 1; d < s.NumDomains(); d++ {
				st := s.Core(d - 1).Stats()
				stall += st.StallCycles
				coreCycles += st.Cycles
				if sh, ok := s.Shaper(mem.Domain(d)); ok {
					fakes += sh.Stats().Fakes
					forwarded += sh.Stats().Forwarded
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	t.systems = nil

	p, err := startProfile(e.work)
	if err != nil {
		return err
	}
	profiled := 0
	if err := repeat(e.budget/4, func() error {
		profiled++
		_, err := op(fig9Options)
		return err
	}); err != nil {
		return err
	}
	gc, err := p.stop()
	if err != nil {
		return err
	}

	n := float64(len(walls))
	w := "fig9-2core."
	var attributed int64
	for _, v := range bucketNs {
		attributed += v
	}
	ns := func(bs ...obs.ProfBucket) float64 {
		var sum int64
		for _, b := range bs {
			sum += bucketNs[b]
		}
		return float64(sum) / 1e9 / n
	}
	o.metrics[w+"cpu.self_s"] = ns(obs.PBCPU)
	o.metrics[w+"shaper.self_s"] = ns(obs.PBShaper)
	o.metrics[w+"sched.self_s"] = ns(obs.PBSched)
	o.metrics[w+"memctrl.self_s"] = ns(obs.PBMemctrl)
	o.metrics[w+"dram.self_s"] = ns(obs.PBDRAM)
	o.metrics[w+"sim.self_s"] = ns(obs.PBHarness, obs.PBEgress, obs.PBRoute, obs.PBCamouflage, obs.PBOther)
	o.metrics[w+"profile.coverage"] = float64(attributed) / float64(wall)
	o.metrics[w+"cpu.stall_frac"] = float64(stall) / float64(coreCycles)
	o.metrics[w+"shaper.fake_frac"] = float64(fakes) / float64(fakes+forwarded)
	o.metrics[w+"memctrl.issue_per_cycle"] = float64(issued) / float64(cycles)
	o.metrics[w+"sched.useful_ratio"] = float64(issued) / float64(schedLaps)
	for _, app := range fig9Apps {
		o.metrics[fmt.Sprintf("%srow.%s_s", w, app)] = t.rows[app].Seconds() / n
	}
	o.metrics[w+"runtime.gc_s"] = gc / float64(profiled)
	o.metrics[w+"bench.trace_overhead"] = overhead(median(walls), untraced)
	return p.fold(o, "fig9-2core")
}
