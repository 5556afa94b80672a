// Command dagchaos runs randomized, seed-reported fault-injection
// campaigns against the simulated memory system: for each seed it draws a
// deterministic fault schedule (DRAM refresh storms, response delay/drop,
// shaper backpressure bursts, egress stalls), attaches it to a freshly
// built machine per scheme, and runs with the forward-progress watchdog
// armed. Any invariant violation is printed with the campaign seed, so
// the failure replays exactly with `-seed <n> -campaigns 1`.
//
// For DAGguise it additionally checks non-interference under faults: two
// runs differing only in the victim's secret must produce bit-identical
// attacker-observable response timing streams under the identical fault
// schedule.
//
// Each (scheme, seed) campaign is a shard of a one-process fleet
// (internal/fleet, box kind): SIGINT, SIGTERM or -timeout stop the sweep
// at the last checkpoint boundary and leave a resume manifest in
// -checkpoint-dir; rerunning with -resume continues from there and
// produces byte-identical results to an uninterrupted sweep.
//
// Usage:
//
//	dagchaos                          # 10 campaigns, every scheme
//	dagchaos -campaigns 50 -seed 7    # longer sweep from base seed 7
//	dagchaos -scheme dagguise         # one scheme only
//	dagchaos -cycles 200000           # longer runs
//	dagchaos -fail-trace fail.json    # Perfetto postmortem of the first failure
//	dagchaos -spans -trace-out t.json # one span per campaign attempt in the export
//	dagchaos -cycle-profile           # per-component cycle-attribution table
//	dagchaos -checkpoint-dir state -checkpoint-every 50000 -out results.json
//	dagchaos -checkpoint-dir state -resume -out results.json   # after a kill
//
// With -shards it instead drives the sharded campaign fabric
// (internal/fleet): a multi-channel, many-tenant non-interference sweep is
// split into (scheme x seed x channel-slice) shards, fanned over a worker
// pool, checkpointed per shard, and merged into one byte-stable report. A
// SIGKILL'd fleet resumes from its manifest and merges to identical bytes:
//
//	dagchaos -shards 4 -workers 8 -channels 4 -domains 100 \
//	    -cycles 20000 -checkpoint-dir fleetdir -out report.json
//
// With -target it instead becomes a traffic generator against a running
// dagauditd leakage-audit service: deterministic tenant streams (real
// simulated tap streams and/or synthetic leaky/clean tenants) are pushed
// through the auditd client, optionally under client-side transport chaos,
// and the fetched verdicts can gate CI:
//
//	dagchaos -target http://127.0.0.1:9470 -serve-schemes insecure,dagguise \
//	    -chaos -verdicts-out verdicts.json -gate insecure=leak,dagguise=clean
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dagguise/internal/ckpt"
	"dagguise/internal/config"
	"dagguise/internal/fleet"
	"dagguise/internal/obs"
	"dagguise/internal/runner"
	"dagguise/internal/sim"
)

// schemes lists the tortured schemes in sweep order.
var schemes = []string{"insecure", "fs", "fs-bta", "tp", "camouflage", "dagguise"}

// flags holds the campaign-mode flags; fleet mode shares the sweep shape
// and persistence flags.
type flags struct {
	campaigns int
	seed      int64
	cycles    uint64
	events    int
	scheme    string
	app       string
	metrics   bool
	traceOut  string
	failTrace string
	pprof     string
	ckptDir   string
	ckptEvery uint64
	resume    bool
	timeout   time.Duration
	retries   int
	out       string
	spans     bool
	cycleProf bool
}

func main() {
	var f flags
	flag.IntVar(&f.campaigns, "campaigns", 10, "number of fault campaigns per scheme")
	flag.Int64Var(&f.seed, "seed", 1, "base campaign seed (campaign i uses seed+i)")
	flag.Uint64Var(&f.cycles, "cycles", 120_000, "cycles per run")
	flag.IntVar(&f.events, "events", 12, "fault events per campaign")
	flag.StringVar(&f.scheme, "scheme", "all", "scheme to torture: all, insecure, fs, fs-bta, tp, camouflage, dagguise")
	flag.StringVar(&f.app, "app", "lbm", "co-runner workload")
	flag.BoolVar(&f.metrics, "metrics", false, "print the per-domain observability metrics table after the sweep")
	flag.StringVar(&f.traceOut, "trace-out", "", "write a Chrome trace-event JSON of all campaigns to this path")
	flag.StringVar(&f.failTrace, "fail-trace", "", "dump a Perfetto-viewable event trace of the first failing seed to this path")
	flag.StringVar(&f.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.StringVar(&f.ckptDir, "checkpoint-dir", "", "directory for checkpoints and the resume manifest (empty = no persistence)")
	flag.Uint64Var(&f.ckptEvery, "checkpoint-every", 50_000, "auto-checkpoint cadence in cycles (with -checkpoint-dir)")
	flag.BoolVar(&f.resume, "resume", false, "resume a previously interrupted sweep from -checkpoint-dir")
	flag.DurationVar(&f.timeout, "timeout", 0, "wall-clock budget for the sweep (0 = none); on expiry the sweep stops at its last checkpoint and exits resumably")
	flag.IntVar(&f.retries, "retries", 0, "supervised retries per campaign after a watchdog trip")
	flag.StringVar(&f.out, "out", "", "write the deterministic sweep results as JSON to this path")
	flag.BoolVar(&f.spans, "spans", false, "record one span per campaign attempt (exported with -trace-out)")
	flag.BoolVar(&f.cycleProf, "cycle-profile", false, "print the per-component cycle-attribution table after the sweep")
	topts := registerTrafficFlags()
	fopts := registerFleetFlags()
	flag.Parse()

	switch {
	case topts.target != "":
		// -target switches dagchaos from torturing the simulator to
		// torturing a running dagauditd instance (see traffic.go).
		os.Exit(runTraffic(topts, f.seed))
	case f.campaigns <= 0:
		fmt.Fprintln(os.Stderr, "dagchaos: -campaigns must be >= 1")
		os.Exit(2)
	case fopts.shards > 0:
		// -shards switches dagchaos to fleet mode: a sharded
		// multi-channel, many-tenant non-interference sweep over a
		// worker pool (see fleet.go).
		os.Exit(runFleet(fopts, &f))
	}
	os.Exit(runCampaigns(&f))
}

// runCampaigns is the campaign-mode main: every (scheme, seed) campaign
// is a box shard of a one-worker fleet. Exit codes: 0 clean, 1 failure,
// 2 usage, 3 interrupted (resumable with -resume).
func runCampaigns(f *flags) int {
	if f.pprof != "" {
		addr, err := obs.ServePprof(f.pprof)
		if err != nil {
			return failed(err)
		}
		fmt.Fprintf(os.Stderr, "dagchaos: pprof at http://%s/debug/pprof/\n", addr)
	}
	var mx *obs.Registry
	var tr *obs.Tracer
	if f.metrics {
		mx = obs.NewRegistry(3) // two cores + the system-wide slot
	}
	if f.traceOut != "" {
		tr = obs.NewTracer(0)
	}
	var sp *obs.Spans
	if f.spans {
		sp = obs.NewSpans(tr)
	}
	var prof *obs.CycleProfile
	if f.cycleProf {
		prof = obs.NewCycleProfile()
	}
	profStart := time.Now()

	sweep := fleet.Sweep{
		Kind:        fleet.KindBox,
		Schemes:     schemes,
		Seeds:       seeds(f),
		Cycles:      f.cycles,
		SecretA:     11,
		SecretB:     12,
		FaultEvents: f.events,
		App:         f.app,
	}
	if f.scheme != "all" {
		if _, err := config.ParseScheme(f.scheme); err != nil {
			fmt.Fprintf(os.Stderr, "dagchaos: unknown scheme %q (use all, %s)\n", f.scheme, strings.Join(schemes, ", "))
			return 2
		}
		sweep.Schemes = []string{f.scheme}
	}
	if f.resume && f.ckptDir == "" {
		fmt.Fprintln(os.Stderr, "dagchaos: -resume needs -checkpoint-dir")
		return 2
	}
	if f.ckptDir != "" && !f.resume {
		if _, err := os.Stat(filepath.Join(f.ckptDir, fleet.ManifestName)); err == nil {
			fmt.Fprintf(os.Stderr, "dagchaos: %s already holds a manifest; pass -resume to continue it or remove the directory\n", f.ckptDir)
			return 2
		}
	}
	dir, every := f.ckptDir, f.ckptEvery
	if dir == "" {
		// Without persistence the fleet still needs a directory, but
		// cuts no mid-campaign checkpoints.
		tmp, err := os.MkdirTemp("", "dagchaos-*")
		if err != nil {
			return failed(err)
		}
		defer os.RemoveAll(tmp)
		dir, every = tmp, 0
	}

	ctx, stop := signalContext(f.timeout)
	defer stop()
	_, err := fleet.Run(ctx, sweep, fleet.Options{
		Workers:         1,
		Dir:             dir,
		CheckpointEvery: every,
		Retries:         f.retries,
		Backoff:         50 * time.Millisecond,
		MaxBackoff:      2 * time.Second,
		Log:             os.Stderr,
		Spans:           sp,
		Attach: func(sys *sim.System) {
			if mx != nil || tr != nil {
				sys.Observe(mx, tr)
			}
			sys.Profile(prof)
		},
	})
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "dagchaos: interrupted (%v); state saved, rerun with -checkpoint-dir %s -resume to continue\n", err, f.ckptDir)
		return 3
	case err != nil && !errors.Is(err, fleet.ErrShardsIncomplete):
		return failed(err)
	}
	// The manifest lists every campaign in sweep order, failed ones too.
	m, err := fleet.LoadManifest(filepath.Join(dir, fleet.ManifestName))
	if err != nil {
		return failed(err)
	}

	failures := report(sweep, m, f.failTrace)

	if f.out != "" {
		data, err := resultsJSON(m)
		if err == nil {
			err = ckpt.WriteFileAtomic(f.out, data)
		}
		if err != nil {
			return failed(err)
		}
		fmt.Fprintf(os.Stderr, "dagchaos: wrote results to %s\n", f.out)
	}
	if f.metrics {
		fmt.Println()
		fmt.Print(obs.FormatSummary(mx.Snapshot(), 0))
	}
	if prof != nil {
		var ticks uint64
		for _, rec := range m.Records {
			if rec.Result != nil {
				ticks += rec.Result.Cycles * uint64(len(rec.Result.Runs))
			}
		}
		fmt.Println()
		fmt.Print(prof.Report(time.Since(profStart), ticks).String())
	}
	if tr != nil {
		if err := obs.WriteChromeTraceFile(f.traceOut, tr); err != nil {
			return failed(err)
		}
		fmt.Fprintf(os.Stderr, "dagchaos: wrote %d trace events to %s\n", tr.Len(), f.traceOut)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "dagchaos: %d campaign(s) failed\n", failures)
		return 1
	}
	return 0
}

// seeds lists the sweep's campaign seeds: -seed, -seed+1, ...
func seeds(f *flags) []int64 {
	out := make([]int64, f.campaigns)
	for i := range out {
		out[i] = f.seed + int64(i)
	}
	return out
}

// signalContext cancels on SIGINT, SIGTERM or after the -timeout budget.
func signalContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := runner.WithSignals(context.Background())
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancel(); stop() }
}

// report prints one verdict line per campaign, with the non-interference
// comparison for twin campaigns, and returns the failure count.
func report(s fleet.Sweep, m *fleet.Manifest, failTrace string) int {
	failures := 0
	for _, rec := range m.Records {
		sh, res := rec.Shard, rec.Result
		head := fmt.Sprintf("%-10s seed=%-6d", sh.Scheme, sh.Seed)
		var verdict string
		switch {
		case res == nil:
			verdict = rec.Error
		case len(res.Runs) == 2 && (res.Runs[0].TapSamples == 0 || res.Interference):
			verdict = fmt.Sprintf("non-interference: response streams diverge (%d vs %d samples)",
				res.Runs[0].TapSamples, res.Runs[1].TapSamples)
		case len(res.Runs) == 2:
			fmt.Printf("ok    %s %d events  response streams secret-independent\n", head, res.FaultEvents)
			continue
		default:
			fmt.Printf("ok    %s %d events\n", head, res.FaultEvents)
			continue
		}
		fmt.Printf("FAIL  %s %s\n", head, verdict)
		if failTrace != "" && failures == 0 {
			dumpFailTrace(failTrace, s, sh, m.Fingerprint)
		}
		failures++
	}
	return failures
}

// resultsJSON renders the deterministic sweep outcome: one entry per
// machine in campaign order (a twin's secret-B run named <campaign>-alt),
// no attempt counts, no checkpoint names, no timestamps — the
// byte-identical artifact the CI kill-and-resume job diffs.
func resultsJSON(m *fleet.Manifest) ([]byte, error) {
	type output struct {
		Scheme string `json:"scheme"`
		Seed   int64  `json:"seed"`
		fleet.BoxRun
	}
	type entry struct {
		Name   string       `json:"name"`
		State  fleet.Status `json:"state"`
		Result *output      `json:"result,omitempty"`
		Error  string       `json:"error,omitempty"`
	}
	var doc struct {
		Jobs []entry `json:"jobs"`
	}
	for _, rec := range m.Records {
		sh := rec.Shard
		if rec.Result == nil {
			doc.Jobs = append(doc.Jobs, entry{Name: sh.Name, State: rec.Status, Error: rec.Error})
			continue
		}
		for i, run := range rec.Result.Runs {
			e := entry{Name: sh.Name, State: rec.Status, Result: &output{Scheme: sh.Scheme, Seed: sh.Seed, BoxRun: run}}
			if i > 0 {
				e.Name += "-alt"
			}
			doc.Jobs = append(doc.Jobs, e)
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}

// failed reports err and returns the failure exit code.
func failed(err error) int {
	fmt.Fprintln(os.Stderr, "dagchaos:", err)
	return 1
}

// dumpFailTrace replays a failing campaign (secret A) with an event
// tracer attached and exports the postmortem as Chrome trace-event JSON:
// the violation marker sits at the end of the Perfetto timeline, with
// the bank, shaper and refresh activity leading up to it.
func dumpFailTrace(path string, s fleet.Sweep, sh fleet.Shard, fingerprint string) {
	tr := obs.NewTracer(0)
	scheme, _ := config.ParseScheme(sh.Scheme)
	sys, err := fleet.BoxMachine(scheme, s.App, s.SecretA)
	if err == nil {
		sys.Observe(nil, tr)
		err = sys.AttachFaults(s.ShardFaultSchedule(fingerprint, sh))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos: fail-trace:", err)
		return
	}
	if err := sys.RunChecked(sh.Cycles); err == nil {
		fmt.Fprintln(os.Stderr, "dagchaos: replay of failing seed did not fail; writing trace anyway")
	}
	if err := obs.WriteChromeTraceFile(path, tr); err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos: fail-trace:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "dagchaos: wrote failure postmortem (%d events) to %s (open in https://ui.perfetto.dev)\n", tr.Len(), path)
}
