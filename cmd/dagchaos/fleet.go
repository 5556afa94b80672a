package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dagguise/internal/ckpt"
	"dagguise/internal/fault"
	"dagguise/internal/fleet"
	"dagguise/internal/obs"
	"dagguise/internal/telem"
)

// fleetFlags selects and shapes fleet mode: instead of per-campaign fault
// injection on a two-core machine, dagchaos fans a multi-channel,
// many-tenant non-interference sweep over a worker pool (internal/fleet).
type fleetFlags struct {
	shards        int
	workers       int
	channels      int
	domains       int
	telemDir      string
	promOut       string
	join          bool
	proc          string
	leaseTTL      time.Duration
	faultEvents   int
	fsChaos       int64
	fsChaosEvents int
}

func registerFleetFlags() *fleetFlags {
	f := &fleetFlags{}
	flag.IntVar(&f.shards, "shards", 0, "fleet mode: split each (scheme, seed) cell into this many channel-slice shards (0 = fleet mode off)")
	flag.IntVar(&f.workers, "workers", 0, "fleet mode: worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&f.channels, "channels", 4, "fleet mode: memory channels in the multi-channel machine")
	flag.IntVar(&f.domains, "domains", 100, "fleet mode: tenant security domains")
	flag.StringVar(&f.telemDir, "telem-dir", "", "fleet mode: write per-worker telemetry streams here and a deterministic telem-report.json after the run (watch live with dagtop -dir)")
	flag.StringVar(&f.promOut, "prom-out", "", "fleet mode: write fleet_* and per-shard counters in Prometheus text format to this path after the run")
	flag.BoolVar(&f.join, "join", false, "fleet mode: join an existing fleet directory as one of several cooperating processes (requires -checkpoint-dir; shard ownership is arbitrated by lease files)")
	flag.StringVar(&f.proc, "proc", "", "fleet mode: process name for -join (namespaces telemetry streams and lease owners; default p<pid>)")
	flag.DurationVar(&f.leaseTTL, "lease-ttl", 0, "fleet mode: shard lease TTL — an unrenewed lease is presumed dead and stealable after this long (0 = 10s)")
	flag.IntVar(&f.faultEvents, "fault-events", 0, "fleet mode: derive a seeded per-shard fault campaign of this many events (DRAM stalls, shaper rejects, egress stalls, deferred responses) from the sweep fingerprint (0 = clean sweep)")
	flag.Int64Var(&f.fsChaos, "fs-chaos", 0, "fleet mode: seed for injected storage faults (torn writes, EIO, rename stalls, fsync delays) under every manifest/lease/checkpoint/result write (0 = off)")
	flag.IntVar(&f.fsChaosEvents, "fs-chaos-events", 16, "fleet mode: number of storage faults injected per process when -fs-chaos is set")
	return f
}

// runFleet is the fleet-mode main: build the sweep, run it under signal
// supervision, print per-scheme verdicts, enforce the audit gate. Exit
// codes match campaign mode: 0 clean, 1 failure, 2 usage, 3 interrupted
// (resumable by re-running with the same flags and -checkpoint-dir).
func runFleet(f *fleetFlags, c *flags) int {
	dir := c.ckptDir
	sweep := fleet.DefaultSweep(f.channels, f.domains, seeds(c), c.cycles)
	sweep.FaultEvents = f.faultEvents
	switch c.scheme {
	case "all":
	case "insecure", "dagguise":
		sweep.Schemes = []string{c.scheme}
	default:
		fmt.Fprintf(os.Stderr, "dagchaos: fleet mode simulates only -scheme all, insecure or dagguise (got %q)\n", c.scheme)
		return 2
	}
	// -shards is the slice count per cell; the sweep wants the slice width.
	if f.shards > f.channels {
		f.shards = f.channels
	}
	sweep.SliceChannels = (f.channels + f.shards - 1) / f.shards

	if f.join && dir == "" {
		fmt.Fprintln(os.Stderr, "dagchaos: -join needs -checkpoint-dir (the shared fleet directory)")
		return 2
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "dagchaos-fleet-*")
		if err != nil {
			return failed(err)
		}
		defer os.RemoveAll(tmp)
		fmt.Fprintf(os.Stderr, "dagchaos: no -checkpoint-dir; using throwaway manifest dir %s (not resumable)\n", tmp)
		dir = tmp
	}
	proc := ""
	if f.join {
		proc = f.proc
		if proc == "" {
			proc = fmt.Sprintf("p%d", os.Getpid())
		}
	}
	var fsInj *fault.FSInjector
	if f.fsChaos != 0 {
		ops := 8 * f.fsChaosEvents
		if ops < 64 {
			ops = 64
		}
		inj, err := fault.NewFSInjector(fault.FSCampaign(f.fsChaos, ops, f.fsChaosEvents))
		if err != nil {
			return failed(err)
		}
		fsInj = inj
	}

	var mx *obs.Registry
	if c.metrics || f.promOut != "" {
		mx = obs.NewRegistry(1)
	}
	var tr *obs.Tracer
	if c.traceOut != "" {
		tr = obs.NewTracer(0)
	}
	var sp *obs.Spans
	if c.spans {
		sp = obs.NewSpans(tr)
	}

	ctx, stop := signalContext(c.timeout)
	defer stop()

	rep, err := fleet.Run(ctx, sweep, fleet.Options{
		Workers:         f.workers,
		Dir:             dir,
		CheckpointEvery: c.ckptEvery,
		Retries:         c.retries,
		Backoff:         100 * time.Millisecond,
		MaxBackoff:      5 * time.Second,
		Log:             os.Stderr,
		Spans:           sp,
		Mx:              mx,
		TelemDir:        f.telemDir,
		Proc:            proc,
		LeaseTTL:        f.leaseTTL,
		FS:              fsInj,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "dagchaos: fleet interrupted (%v); manifest saved, rerun with the same flags and -checkpoint-dir %s to resume\n", err, dir)
			return 3
		}
		return failed(err)
	}

	for _, v := range rep.Verdicts {
		status := "ok  "
		if v.Secure == v.Interference {
			status = "FAIL"
		}
		verdict := "no interference"
		if v.Interference {
			verdict = "interference detected"
		}
		fmt.Printf("%s  %-10s shards=%-3d %s\n", status, v.Scheme, v.Shards, verdict)
	}
	fmt.Printf("fleet: %d shards, %d tenants x %d channels, %d cycles each, %d requests completed\n",
		rep.Totals.Shards, f.domains, f.channels, c.cycles, rep.Totals.Completed)

	if c.out != "" {
		blob, err := rep.Encode()
		if err != nil {
			return failed(err)
		}
		if err := ckpt.WriteFileAtomic(c.out, blob); err != nil {
			return failed(err)
		}
		fmt.Fprintf(os.Stderr, "dagchaos: wrote fleet report to %s\n", c.out)
	}
	if c.metrics {
		fmt.Println()
		fmt.Print(obs.FormatSummary(mx.Snapshot(), 0))
	}
	if tr != nil {
		if err := obs.WriteChromeTraceFile(c.traceOut, tr); err != nil {
			return failed(err)
		}
		fmt.Fprintf(os.Stderr, "dagchaos: wrote %d trace events to %s\n", tr.Len(), c.traceOut)
	}
	if f.telemDir != "" {
		if code := writeTelemReport(f.telemDir); code != 0 {
			return code
		}
	}
	if f.promOut != "" {
		if code := writeFleetProm(f.promOut, dir, mx); code != 0 {
			return code
		}
	}
	if err := rep.Gate(); err != nil {
		return failed(err)
	}
	return 0
}

// writeTelemReport folds the run's telemetry streams into the
// deterministic telem-report.json next to them (the byte-diffable
// artifact the telem-soak CI job compares) and prints its alerts.
func writeTelemReport(telemDir string) int {
	col, err := telem.Collect(telemDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos: telem:", err)
		return 1
	}
	trep, err := col.Report(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos: telem:", err)
		return 1
	}
	blob, err := trep.Encode()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos: telem:", err)
		return 1
	}
	path := filepath.Join(telemDir, "telem-report.json")
	if err := ckpt.WriteFileAtomic(path, blob); err != nil {
		fmt.Fprintln(os.Stderr, "dagchaos: telem:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "dagchaos: wrote telemetry report (%d series, %d spans, %d alerts) to %s\n",
		len(trep.Series), len(trep.Spans), len(trep.Alerts), path)
	for _, a := range trep.Alerts {
		fmt.Fprintf(os.Stderr, "dagchaos: telem alert: %s %s %s (value %g %s %g)\n",
			a.Severity, a.Rule, a.State, a.Value, a.Op, a.Threshold)
	}
	return 0
}

// writeFleetProm renders the fleet_* registry counters plus the
// per-shard manifest counters in Prometheus text format.
func writeFleetProm(out, manifestDir string, mx *obs.Registry) int {
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, mx.Snapshot(), ""); err != nil {
		return failed(err)
	}
	m, err := fleet.LoadManifest(filepath.Join(manifestDir, fleet.ManifestName))
	if err != nil {
		return failed(err)
	}
	if err := fleet.WriteShardPrometheus(&buf, m.Records); err != nil {
		return failed(err)
	}
	if err := ckpt.WriteFileAtomic(out, buf.Bytes()); err != nil {
		return failed(err)
	}
	fmt.Fprintf(os.Stderr, "dagchaos: wrote fleet metrics to %s\n", out)
	return 0
}
