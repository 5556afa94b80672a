package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dagguise/internal/ckpt"
	"dagguise/internal/config"
	"dagguise/internal/fleet"
	"dagguise/internal/obs"
	"dagguise/internal/sim"
)

// fleet-100t4c: the non-interference fleet over 100 tenants on 4 channels,
// both schemes, 1-channel shards checkpointed every tenth of a shard, two
// workers and telemetry on: the shape of the CI dagchaos fleet recipe. The
// Cluster has no CPU model, so the controller, scheduler and DRAM do the
// work, on sparse traffic.
const (
	fleetChannels = 4
	fleetTenants  = 100
	fleetCycles   = 50_000
	fleetWorkers  = 2
)

// fleetSweep derives the sweep from the run's seed: two base seeds.
func fleetSweep(seed int64) fleet.Sweep {
	return fleet.DefaultSweep(fleetChannels, fleetTenants, []int64{seed, seed + 1}, fleetCycles)
}

// fleetOp is one fleet.Run call's cost and merged report.
type fleetOp struct {
	cost opCost
	rep  *fleet.Report
}

func runFleet(e *env) (*outcome, error) {
	sweep := fleetSweep(e.seed)
	shards, err := sweep.Shards()
	if err != nil {
		return nil, err
	}
	var golden []byte
	if e.seed == defaultSeed {
		if golden, err = e.golden("fleet-100t4c-seed1.json"); err != nil {
			return nil, err
		}
	}
	o := newOutcome()
	// Set-up: validate and fingerprint the sweep and build every shard's
	// twin clusters — the part of a shard before its first tick.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		c, err := measure(nil, func() error { return buildShards(sweep) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.wall.Seconds())
	}
	o.metrics["setup_s"] = median(setups)

	runs := 0
	op := func(telemOn bool, opts fleet.Options) (fleetOp, error) {
		runs++
		dir := filepath.Join(e.work, fmt.Sprintf("fleet-%d", runs))
		defer os.RemoveAll(dir)
		opts.Workers = fleetWorkers
		opts.Dir = filepath.Join(dir, "fleet")
		opts.CheckpointEvery = fleetCycles / 10
		if telemOn {
			opts.TelemDir = filepath.Join(dir, "telem")
		}
		var rep *fleet.Report
		cost, runErr := measure(e.rss, func() error {
			var err error
			rep, err = fleet.Run(context.Background(), sweep, opts)
			return err
		})
		out := fleetOp{cost: cost, rep: rep}
		e.logf("fleet.Run %d (telemetry %v): %.3f s", runs, telemOn, cost.wall.Seconds())
		bad, err := shardFailures(opts.Dir)
		if err != nil {
			return out, err
		}
		switch {
		case runErr != nil:
			o.check("fleet.Run: %v", runErr)
			bad = len(shards)
		default:
			report, err := rep.Encode()
			if err != nil {
				return out, err
			}
			if err := rep.Gate(); err != nil {
				o.check("%v", err)
			}
			if golden == nil {
				golden = report
			}
			if !bytes.Equal(report, golden) {
				o.check("fleet report differs from the golden (or from the run's first report):\n%s", report)
			}
		}
		o.op(len(shards), bad)
		return out, nil
	}

	budget := e.budget
	if e.trace {
		budget /= 2
	}
	var costs []opCost
	var offWalls []float64
	if err := repeat(budget, func() error {
		// A traced run alternates telemetry off and on, to measure what
		// telemetry costs; untraced runs always keep it on.
		telemOn := !e.trace || len(costs) <= len(offWalls)
		r, err := op(telemOn, fleet.Options{})
		if telemOn {
			costs = append(costs, r.cost)
		} else {
			offWalls = append(offWalls, r.cost.wall.Seconds())
		}
		return err
	}); err != nil {
		return nil, err
	}
	if !e.trace {
		setThroughput(o, costs, float64(len(shards)*fleetCycles*2))
		return o, nil
	}
	if len(offWalls) == 0 {
		r, err := op(false, fleet.Options{})
		if err != nil {
			return nil, err
		}
		offWalls = append(offWalls, r.cost.wall.Seconds())
	}
	untraced := median(secondsOf(costs))
	o.metrics["fleet-100t4c.telem.overhead_s"] = untraced - median(offWalls)
	return o, traceFleet(e, o, sweep, shards, op, untraced)
}

// buildShards validates and fingerprints the sweep and constructs every
// shard's twin clusters.
func buildShards(sweep fleet.Sweep) error {
	shards, err := sweep.Shards()
	if err != nil {
		return err
	}
	if _, err := sweep.Fingerprint(); err != nil {
		return err
	}
	for _, sh := range shards {
		if _, _, err := newTwins(sweep, sh); err != nil {
			return err
		}
	}
	return nil
}

func newTwins(sweep fleet.Sweep, sh fleet.Shard) (a, b *sim.Cluster, err error) {
	cfg := sweep.Config
	if cfg.Scheme, err = config.ParseScheme(sh.Scheme); err != nil {
		return nil, nil, err
	}
	if a, err = sim.NewCluster(cfg, sh.ChanLo, sh.ChanHi, sh.Seed, sweep.SecretA); err != nil {
		return nil, nil, err
	}
	b, err = sim.NewCluster(cfg, sh.ChanLo, sh.ChanHi, sh.Seed, sweep.SecretB)
	return a, b, err
}

// shardFailures counts the shards of a finished fleet directory that
// failed or needed a retry.
func shardFailures(dir string) (int, error) {
	m, err := fleet.LoadManifest(filepath.Join(dir, fleet.ManifestName))
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, r := range m.Records {
		if r.Status != fleet.StatusDone || r.Retries > 0 {
			bad++
		}
	}
	return bad, nil
}

// spanClock samples a span recorder's open set every millisecond and
// turns it into wall durations: a span lasts from the first sample that
// sees it open to the first that no longer does.
type spanClock struct {
	sp    *obs.Spans
	stop  chan struct{}
	done  chan struct{}
	first map[uint64]time.Time
	dur   map[uint64]time.Duration
}

func startSpanClock(sp *obs.Spans) *spanClock {
	c := &spanClock{sp: sp, stop: make(chan struct{}), done: make(chan struct{}),
		first: map[uint64]time.Time{}, dur: map[uint64]time.Duration{}}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				c.sample()
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *spanClock) sample() {
	now := time.Now()
	open := map[uint64]bool{}
	for _, s := range c.sp.Open() {
		open[s.ID] = true
		if _, ok := c.first[s.ID]; !ok {
			c.first[s.ID] = now
		}
	}
	for id, t := range c.first {
		if _, ended := c.dur[id]; !ended && !open[id] {
			c.dur[id] = now.Sub(t)
		}
	}
}

// end stops sampling and returns the span count and their total duration.
func (c *spanClock) end() (int, time.Duration) {
	close(c.stop)
	<-c.done
	var sum time.Duration
	for _, d := range c.dur {
		sum += d
	}
	return len(c.dur), sum
}

// replayTimes splits a shard's execution into its layers.
type replayTimes struct {
	simulate, encode, fsync, digest time.Duration
}

// replayShard re-executes a shard the way fleet.RunShard does — twin
// clusters advanced in checkpointed chunks, then digested — timing each
// layer, and returns the twins' digests.
func replayShard(sweep fleet.Sweep, sh fleet.Shard, every uint64, path string) (replayTimes, string, string, error) {
	var t replayTimes
	start := time.Now()
	a, b, err := newTwins(sweep, sh)
	if err != nil {
		return t, "", "", err
	}
	for a.Now() < sh.Cycles {
		chunk := min(every, sh.Cycles-a.Now())
		a.Run(chunk)
		b.Run(chunk)
		t.simulate += time.Since(start)
		if a.Now() < sh.Cycles {
			start = time.Now()
			sa, err := a.SaveState()
			if err != nil {
				return t, "", "", err
			}
			sb, err := b.SaveState()
			if err != nil {
				return t, "", "", err
			}
			blob, err := json.Marshal(struct {
				A *sim.ClusterState `json:"a"`
				B *sim.ClusterState `json:"b"`
			}{sa, sb})
			if err != nil {
				return t, "", "", err
			}
			t.encode += time.Since(start)
			start = time.Now()
			if err := ckpt.SaveFrame(path, blob); err != nil {
				return t, "", "", err
			}
			t.fsync += time.Since(start)
		}
		start = time.Now()
	}
	da, db := a.AuditDigest(), b.AuditDigest()
	t.digest = time.Since(start)
	return t, da, db, nil
}

// traceFleet runs fleet.Run with attempt spans and fleet counters for the
// rest of the budget, under a pprof profile, then replays every shard
// layer by layer, and sets the per-layer metrics as means per fleet.Run.
func traceFleet(e *env, o *outcome, sweep fleet.Sweep, shards []fleet.Shard,
	op func(bool, fleet.Options) (fleetOp, error), untraced float64) error {
	p, err := startProfile(e.work)
	if err != nil {
		return err
	}
	var walls []float64
	var last *fleet.Report
	var spanSum time.Duration
	var attempts int
	var retries, fenced, steals uint64
	if err := repeat(e.budget/2, func() error {
		mx := obs.NewRegistry(1)
		spans := obs.NewSpans(nil)
		clock := startSpanClock(spans)
		r, err := op(true, fleet.Options{Spans: spans, Mx: mx})
		n, sum := clock.end()
		if err != nil {
			return err
		}
		walls = append(walls, r.cost.wall.Seconds())
		last = r.rep
		attempts += n
		spanSum += sum
		retries += mx.CounterTotal(obs.CtrFleetRetries)
		fenced += mx.CounterTotal(obs.CtrFleetFencedCommits)
		steals += mx.CounterTotal(obs.CtrFleetLeaseSteals)
		return nil
	}); err != nil {
		return err
	}
	gc, err := p.stop()
	if err != nil {
		return err
	}
	if last == nil {
		return fmt.Errorf("traced fleet run produced no report")
	}

	reported := map[string]fleet.ShardResult{}
	for _, r := range last.Shards {
		reported[r.Name] = r
	}
	// Replay on as many goroutines as the fleet has workers, so each
	// shard runs under the same CPU contention as inside fleet.Run.
	type replayed struct {
		t      replayTimes
		da, db string
		err    error
	}
	results := make([]replayed, len(shards))
	var wg sync.WaitGroup
	for w := 0; w < fleetWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			frame := filepath.Join(e.work, fmt.Sprintf("replay-%d.ckpt", w))
			for i := w; i < len(shards); i += fleetWorkers {
				r := &results[i]
				r.t, r.da, r.db, r.err = replayShard(sweep, shards[i], fleetCycles/10, frame)
			}
		}(w)
	}
	wg.Wait()
	var total replayTimes
	for i, r := range results {
		if r.err != nil {
			return r.err
		}
		name := shards[i].Name
		if res := reported[name]; res.DigestA != r.da || res.DigestB != r.db {
			o.check("replay of shard %s gives digests %s/%s, fleet reported %s/%s",
				name, r.da, r.db, res.DigestA, res.DigestB)
		}
		total.simulate += r.t.simulate
		total.encode += r.t.encode
		total.fsync += r.t.fsync
		total.digest += r.t.digest
	}

	n := float64(len(walls))
	w := "fleet-100t4c."
	o.metrics[w+"cluster.simulate_s"] = total.simulate.Seconds()
	o.metrics[w+"cluster.digest_s"] = total.digest.Seconds()
	o.metrics[w+"ckpt.encode_s"] = total.encode.Seconds()
	o.metrics[w+"ckpt.fsync_s"] = total.fsync.Seconds()
	layers := total.simulate + total.digest + total.encode + total.fsync
	o.metrics[w+"fleet.fabric_s"] = spanSum.Seconds()/n - layers.Seconds()
	var wallSum float64
	for _, x := range walls {
		wallSum += x
	}
	o.metrics[w+"fleet.idle_frac"] = 1 - spanSum.Seconds()/(fleetWorkers*wallSum)
	o.metrics[w+"fleet.attempts_per_shard"] = float64(attempts) / n / float64(len(shards))
	o.metrics[w+"fleet.retries"] = float64(retries)
	o.metrics[w+"fleet.fenced"] = float64(fenced)
	o.metrics[w+"fleet.steals"] = float64(steals)

	var issued, chanCycles uint64
	for _, s := range last.Shards {
		for _, v := range s.Counters.ChannelIssued {
			issued += v
		}
		chanCycles += s.Cycles * uint64(s.ChanHi-s.ChanLo)
	}
	o.metrics[w+"memctrl.issue_per_chan_cycle"] = float64(issued) / float64(chanCycles)
	t := last.Totals
	o.metrics[w+"shaper.fake_frac"] = float64(t.ShaperFakes) / float64(t.ShaperFakes+t.ShaperForwarded)
	o.metrics[w+"runtime.gc_s"] = gc / n
	o.metrics[w+"bench.trace_overhead"] = overhead(median(walls), untraced)
	return p.fold(o, "fleet-100t4c")
}
