package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one printed metric: its name, unit and which direction is
// better. BENCHMARK.json lists the same names and units (checked by
// TestBenchmarkJSONMatchesTables).
type metric struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the workload sees. Every workload
// reports all of them; what one "op" and one unit of "work" are differs
// per workload (README.md):
//
//	fig9-2core     op = one eval.Figure9 call, work = simulated cycles
//	fleet-100t4c   op = one fleet.Run call,    work = shard cycles x 2 twins
//	auditd-ingest  op = one ingest request,    work = accepted observations
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"allocs_m", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerPackages are the dagguise/internal packages (plus runtime) whose
// share of CPU time and allocated bytes each workload's traced run folds
// from its pprof profiles: the packages that do that workload's work.
var layerPackages = map[string][]string{
	"fig9-2core":    {"cpu", "cache", "shaper", "memctrl", "sched", "dram", "sim", "trace", "victim", "eval", "runtime"},
	"fleet-100t4c":  {"memctrl", "sched", "dram", "sim", "shaper", "fleet", "ckpt", "telem", "runtime"},
	"auditd-ingest": {"audit", "auditd", "attack", "runtime"},
}

// layerMetrics are each workload's per-layer metrics other than the
// package shares, without the workload prefix.
var layerMetrics = map[string][]metric{
	"fig9-2core": {
		{"cpu.self_s", "s", "lower"},
		{"cpu.stall_frac", "frac", "lower"},
		{"shaper.self_s", "s", "lower"},
		{"shaper.fake_frac", "frac", "lower"},
		{"sched.self_s", "s", "lower"},
		{"memctrl.self_s", "s", "lower"},
		{"dram.self_s", "s", "lower"},
		{"sim.self_s", "s", "lower"},
		{"profile.coverage", "frac", "higher"},
		{"memctrl.issue_per_cycle", "1/cycle", "higher"},
		{"sched.useful_ratio", "frac", "higher"},
		{"row.lbm_s", "s", "lower"},
		{"row.xz_s", "s", "lower"},
		{"row.leela_s", "s", "lower"},
	},
	"fleet-100t4c": {
		{"cluster.simulate_s", "s", "lower"},
		{"cluster.digest_s", "s", "lower"},
		{"ckpt.encode_s", "s", "lower"},
		{"ckpt.fsync_s", "s", "lower"},
		{"fleet.fabric_s", "s", "lower"},
		{"fleet.idle_frac", "frac", "lower"},
		{"fleet.attempts_per_shard", "count", "lower"},
		{"fleet.retries", "count", "lower"},
		{"fleet.fenced", "count", "lower"},
		{"fleet.steals", "count", "lower"},
		{"telem.overhead_s", "s", "lower"},
		{"memctrl.issue_per_chan_cycle", "1/cycle", "higher"},
		{"shaper.fake_frac", "frac", "lower"},
	},
	"auditd-ingest": {
		{"auditd.handler_s", "s", "lower"},
		{"http.transport_s", "s", "lower"},
		{"audit.push_s", "s", "lower"},
		{"audit.windows", "count", "higher"},
		{"auditd.verdicts_p50_ms", "ms", "lower"},
		{"auditd.batch_p99_ms", "ms", "lower"},
		{"auditd.batches", "count", "higher"},
		{"auditd.shed", "count", "lower"},
		{"auditd.retries", "count", "lower"},
		{"attack.streams_s", "s", "lower"},
	},
}

// perLayer is the full per-layer table, in print order: for each workload
// its layer metrics, then runtime.gc_s and the tracing overhead, then the
// package shares.
var perLayer = func() []metric {
	var out []metric
	for _, w := range sortedKeys(workloads) {
		for _, m := range layerMetrics[w] {
			out = append(out, metric{w + "." + m.Name, m.Unit, m.Better})
		}
		out = append(out,
			metric{w + ".runtime.gc_s", "s", "lower"},
			metric{w + ".bench.trace_overhead", "frac", "lower"})
		for _, p := range layerPackages[w] {
			out = append(out,
				metric{w + "." + p + ".cpu_share", "frac", "lower"},
				metric{w + "." + p + ".alloc_share", "frac", "lower"})
		}
	}
	return out
}()

// median returns the middle value of xs (the mean of the two middle ones
// for an even count). xs must not be empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It refuses when fewer than minTail samples lie beyond it: a p99 needs
// at least 1000 samples.
func percentile(xs []float64, p int) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %d out of (0,100)", p)
	}
	n := len(xs)
	rank := (p*n + 99) / 100 // ceil(p*n/100), 1-based
	if rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("p%d of %d samples has %d beyond it, need %d", p, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// opCost is the wall time, heap allocation and peak resident set of one
// operation.
type opCost struct {
	wall   time.Duration
	bytes  uint64
	allocs uint64
	rssMB  float64
}

// measure runs op once and returns its cost; rss may be nil (no peak
// RSS). Every op starts from a collected heap with freed memory returned
// to the OS, so its peak resident set and its GC work do not depend on
// what ran before it. That and runtime.ReadMemStats, which stops the
// world briefly, run outside the timed interval.
func measure(rss *rssSampler, op func() error) (opCost, error) {
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss.take()
	start := time.Now()
	err := op()
	wall := time.Since(start)
	peak := rss.take()
	runtime.ReadMemStats(&after)
	return opCost{wall: wall, bytes: after.TotalAlloc - before.TotalAlloc,
		allocs: after.Mallocs - before.Mallocs, rssMB: peak}, err
}

// repeat calls op until budget has elapsed, at least once.
func repeat(budget time.Duration, op func() error) error {
	start := time.Now()
	for first := true; first || time.Since(start) < budget; first = false {
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

// secondsOf returns each op's wall time in seconds.
func secondsOf(costs []opCost) []float64 {
	out := make([]float64, len(costs))
	for i, c := range costs {
		out[i] = c.wall.Seconds()
	}
	return out
}

// setThroughput sets every end-to-end metric but setup_s for ops that each
// do work units: work_per_s is the median over ops of work / wall.
func setThroughput(o *outcome, costs []opCost, work float64) {
	var rates []float64
	for _, w := range secondsOf(costs) {
		rates = append(rates, work/w)
	}
	o.metrics["work_per_s"] = median(rates)
	o.metrics["op_p50_ms"] = median(secondsOf(costs)) * 1e3
	setCosts(o, costs)
}

// setCosts sets alloc_mb and allocs_m, the medians over ops of the bytes
// and objects allocated, and peak_rss_mb, the mean over ops of the peak
// resident set. An op's peak depends on where the collector's cycles fall
// and clusters around two or three values, so a median flips between them
// from run to run while the mean moves smoothly.
func setCosts(o *outcome, costs []opCost) {
	var b, n []float64
	var rss float64
	for _, c := range costs {
		b = append(b, float64(c.bytes)/1e6)
		n = append(n, float64(c.allocs)/1e6)
		rss += c.rssMB
	}
	o.metrics["alloc_mb"] = median(b)
	o.metrics["allocs_m"] = median(n)
	o.metrics["peak_rss_mb"] = rss / float64(len(costs))
}

// rssSampler tracks the process's peak resident set between takes by
// reading VmRSS every rssEvery. A nil sampler reads 0.
type rssSampler struct {
	mu         sync.Mutex
	peak       float64
	stop, done chan struct{}
}

const rssEvery = 5 * time.Millisecond

func startRSSSampler() (*rssSampler, error) {
	v, err := residentMB()
	if err != nil {
		return nil, err
	}
	s := &rssSampler{peak: v, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if v, err := residentMB(); err == nil {
					s.mu.Lock()
					s.peak = max(s.peak, v)
					s.mu.Unlock()
				}
			}
		}
	}()
	return s, nil
}

// take returns the peak since the previous take and restarts the peak
// from the current resident set.
func (s *rssSampler) take() float64 {
	if s == nil {
		return 0
	}
	v, _ := residentMB()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := max(s.peak, v)
	s.peak = v
	return peak
}

// close stops the sampler and waits for it.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// residentMB reads the process's resident set (VmRSS) in MB.
func residentMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("resident set: %w", err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("resident set: no VmRSS in /proc/self/status")
}

// gcSeconds returns the CPU seconds the garbage collector has used so far.
func gcSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// overhead is the traced op time relative to the untraced one, minus 1.
func overhead(traced, untraced float64) float64 { return traced/untraced - 1 }
