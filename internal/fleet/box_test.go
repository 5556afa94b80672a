package fleet

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dagguise/internal/runner"
	"dagguise/internal/sim"
)

// boxSweep is a single-box fault-campaign sweep, the shape dagchaos runs.
func boxSweep(schemes []string, seeds []int64, cycles uint64) Sweep {
	return Sweep{
		Kind:    KindBox,
		Schemes: schemes,
		Seeds:   seeds,
		Cycles:  cycles,
		SecretA: 11,
		SecretB: 12,
		App:     "lbm",
	}
}

// TestBoxSweepShardsAndValidate pins the box kind's shard layout (one
// shard per scheme and seed, named like the campaigns) and its checks.
func TestBoxSweepShardsAndValidate(t *testing.T) {
	s := boxSweep([]string{"insecure", "dagguise"}, []int64{1, 2}, 1000)
	shards, err := s.Shards()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sh := range shards {
		names = append(names, sh.Name)
	}
	if got, want := strings.Join(names, " "), "insecure-seed1 insecure-seed2 dagguise-seed1 dagguise-seed2"; got != want {
		t.Fatalf("box shards %q, want %q", got, want)
	}
	s.App = "no-such-app"
	if err := s.Validate(); err == nil {
		t.Fatal("box sweep with an unknown co-runner validated")
	}
	s.Kind = "rack"
	if err := s.Validate(); err == nil {
		t.Fatal("unknown shard kind validated")
	}
}

// TestBoxTwinVerdictIsComputed runs twins under both a leaky and a
// shaped scheme: the insecure victim's response stream depends on its
// secret, so its twins must disagree, and DAGguise's must agree.
func TestBoxTwinVerdictIsComputed(t *testing.T) {
	s := boxSweep([]string{"insecure", "dagguise"}, []int64{1}, 30_000)
	shards, err := s.Shards()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"insecure": true, "dagguise": false}
	for _, sh := range shards {
		r, err := runBoxShard(context.Background(), s.App, sh, ShardOptions{
			SecretA: s.SecretA, SecretB: s.SecretB, Faults: s.ShardFaultSchedule("", sh),
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Runs) != 2 || r.Runs[0].Secret != 11 || r.Runs[1].Secret != 12 {
			t.Fatalf("shard %s runs %+v, want secret 11 and 12 twins", r.Name, r.Runs)
		}
		if r.Runs[0].TapSamples == 0 || r.DigestA != r.Runs[0].TapSHA || r.DigestB != r.Runs[1].TapSHA {
			t.Fatalf("shard %s: digests %s/%s do not summarise its taps %+v", r.Name, r.DigestA, r.DigestB, r.Runs)
		}
		if r.Interference != want[r.Scheme] || r.Interference != (r.DigestA != r.DigestB) {
			t.Fatalf("shard %s: interference %v with digests %s vs %s, want %v",
				r.Name, r.Interference, r.DigestA, r.DigestB, want[r.Scheme])
		}
	}
}

// TestBoxSweepSIGTERMResumesIdentically stops a checkpointed box sweep
// with SIGTERM as soon as its first mid-shard checkpoint is durable, then
// resumes it: the report must equal an uninterrupted run's byte for byte,
// and the resume must have restored a checkpoint rather than rerun from
// scratch. The first checkpoint falls late enough (cycle 25000) that the
// DAGguise twins' states differ, so a twin restored from the wrong state
// shows in the report.
func TestBoxSweepSIGTERMResumesIdentically(t *testing.T) {
	s := boxSweep([]string{"dagguise", "camouflage"}, []int64{3, 4}, 100_000)
	ref := runSweep(t, s, Options{Workers: 1, Dir: t.TempDir()})

	dir := t.TempDir()
	sigCtx, stop := runner.WithSignals(context.Background())
	defer stop()
	ctx, cancel := context.WithCancel(sigCtx)
	watcher := make(chan struct{})
	go func() {
		defer close(watcher)
		for ctx.Err() == nil {
			if frames, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(frames) > 0 {
				_ = syscall.Kill(os.Getpid(), syscall.SIGTERM)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	_, err := Run(ctx, s, Options{Workers: 1, Dir: dir, CheckpointEvery: 25_000})
	// The handler must outlive the watcher's last possible signal.
	cancel()
	<-watcher
	stop()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SIGTERM'd sweep returned %v, want context.Canceled", err)
	}

	got := runSweep(t, s, Options{Workers: 1, Dir: dir, CheckpointEvery: 25_000})
	if !bytes.Equal(ref, got) {
		t.Fatalf("resumed box sweep differs from uninterrupted run:\n--- reference ---\n%s\n--- resumed ---\n%s", ref, got)
	}
	m, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	resumes := 0
	for _, rec := range m.Records {
		resumes += rec.Resumes
	}
	if resumes == 0 {
		t.Fatal("no shard resumed from its checkpoint")
	}
}

// TestBoxWatchdogTripFailsAfterRetries arms a tight watchdog: seed 2's
// fault campaign holds a DRAM storm longer than the budget, seed 1's has
// none. The tripping campaign, claimed first, must end failed after its
// retries while the sweep goes on to complete the other one.
func TestBoxWatchdogTripFailsAfterRetries(t *testing.T) {
	s := boxSweep([]string{"insecure"}, []int64{2, 1}, 40_000)
	dir := t.TempDir()
	_, err := Run(context.Background(), s, Options{
		Workers: 1, Dir: dir, Retries: 2, Backoff: 1, MaxBackoff: 2,
		Attach: func(sys *sim.System) { sys.SetWatchdog(sim.Watchdog{StallBudget: 2_000}) },
	})
	if !errors.Is(err, ErrShardsIncomplete) {
		t.Fatalf("got %v, want ErrShardsIncomplete", err)
	}
	m, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	tripped, ok := m.Records[0], m.Records[1]
	if ok.Status != StatusDone || ok.Result == nil {
		t.Fatalf("healthy campaign %s is %s (%s)", ok.Shard.Name, ok.Status, ok.Error)
	}
	if tripped.Status != StatusFailed || tripped.Retries != 2 || !strings.Contains(tripped.Error, "deadlock") {
		t.Fatalf("tripping campaign %s: status %s, %d retries, error %q; want failed after 2 retries on a deadlock",
			tripped.Shard.Name, tripped.Status, tripped.Retries, tripped.Error)
	}
	if _, err := os.Stat(FailedName(dir, tripped.Shard.Name)); err != nil {
		t.Fatalf("no failure marker: %v", err)
	}
}
