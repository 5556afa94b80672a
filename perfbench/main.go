// Command perfbench is the repository benchmark. It runs one named
// workload through the simulator's public entry points, checks the
// outputs against committed goldens and seed-independent invariants, and
// prints one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured by timing calls into each
// layer from this package plus a pprof CPU and allocation profile folded
// by package. README.md lists the workloads, the metric definitions and
// which end-to-end metric each layer metric should move.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

//go:embed golden
var goldenFS embed.FS

// defaultSeed is the seed the committed goldens were generated with.
const defaultSeed = 1

// setupReps is how many times each workload repeats its set-up; setup_s
// is their median.
const setupReps = 5

func main() {
	os.Exit(run(os.Args[1:], goldenFS, os.Stdout, os.Stderr))
}

// env is what a workload runner gets: its inputs and where to write.
type env struct {
	seed    int64
	budget  time.Duration // how long the measured phase runs
	trace   bool
	work    string // scratch directory, removed when the run ends
	goldens fs.FS
	log     io.Writer
	rss     *rssSampler // untraced runs only
}

// golden reads the committed golden output called name. Seed-dependent
// outputs have a golden for defaultSeed only.
func (e *env) golden(name string) ([]byte, error) {
	return fs.ReadFile(e.goldens, "golden/"+name)
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: "+format+"\n", args...)
}

// outcome is a workload run's result before it is printed.
type outcome struct {
	attempted int
	failed    int
	checkErrs []string
	metrics   map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// op records n attempted operations, of which bad failed.
func (o *outcome) op(n, bad int) {
	o.attempted += n
	o.failed += bad
}

// check records an output-check failure; any one fails the whole run.
func (o *outcome) check(format string, args ...any) {
	o.checkErrs = append(o.checkErrs, fmt.Sprintf(format, args...))
}

type runner func(e *env) (*outcome, error)

var workloads = map[string]runner{
	"fig9-2core":    runFig9,
	"fleet-100t4c":  runFleet,
	"auditd-ingest": runAuditd,
}

func run(args []string, goldens fs.FS, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: fig9-2core, fleet-100t4c or auditd-ingest")
	seed := fl.Int64("seed", defaultSeed, "input seed")
	seconds := fl.Int("seconds", 10, "length of the measured phase")
	trace := fl.Int("trace", 0, "0 prints end-to-end metrics, 1 runs traced and prints per-layer metrics")
	workdir := fl.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(sortedKeys(workloads), ", "))
		return 2
	}
	work := filepath.Join(*workdir, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		work:    work,
		goldens: goldens,
		log:     stderr,
	}
	if !e.trace {
		rss, err := startRSSSampler()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer rss.close()
		e.rss = rss
	}
	o, err := wl(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := resultLine(*name, e.trace, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, msg := range o.checkErrs {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %s\n", *name, msg)
	}
	fmt.Fprintln(stdout, string(line))
	if len(o.checkErrs) > 0 || o.failed > 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the outcome as the result JSON. An untraced run must
// have measured every end-to-end metric and prints only those; a traced
// run must have measured every per-layer metric of its own workload and
// prints the whole per-layer table (the other workloads' metrics read 0:
// their layers did not run).
func resultLine(workload string, traced bool, o *outcome) ([]byte, error) {
	if o.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	failed := o.failed
	if len(o.checkErrs) > 0 {
		failed = o.attempted
	}
	r := result{Correct: failed == 0, Attempted: o.attempted, Failed: failed, Metrics: map[string]metricValue{}}
	table := endToEnd
	if traced {
		table = perLayer
	}
	for _, m := range table {
		v, ok := o.metrics[m.Name]
		if !ok {
			if !traced || strings.HasPrefix(m.Name, workload+".") {
				return nil, fmt.Errorf("metric %s was not measured", m.Name)
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range o.metrics {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the metric tables", name)
		}
	}
	return json.Marshal(r)
}

// known holds every metric name of both tables.
var known = func() map[string]bool {
	m := map[string]bool{}
	for _, x := range append(append([]metric(nil), endToEnd...), perLayer...) {
		m[x.Name] = true
	}
	return m
}()

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
