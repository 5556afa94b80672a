package fleet

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dagguise/internal/ckpt"
	"dagguise/internal/fault"
)

// fakeClock is an injectable wall clock for lease-expiry tests: no test
// here ever sleeps to expire a lease.
type fakeClock struct {
	t time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// testLM builds a lease manager over dir with an injectable clock.
func testLM(dir string, ttl time.Duration) (*LeaseManager, *fakeClock) {
	clk := newFakeClock()
	lm := NewLeaseManager(dir, ttl, nil)
	lm.now = clk.now
	return lm, clk
}

func TestLeaseAcquireIsExclusive(t *testing.T) {
	lm, _ := testLM(t.TempDir(), time.Second)
	h, err := lm.Acquire("s0", "a-w0")
	if err != nil {
		t.Fatal(err)
	}
	if h.Epoch() != 1 || h.Stole() {
		t.Fatalf("first acquisition: epoch %d stole %v, want epoch 1, no steal", h.Epoch(), h.Stole())
	}
	if _, err := lm.Acquire("s0", "b-w0"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("second owner got %v, want ErrLeaseHeld", err)
	}
	// The same owner id re-acquiring adopts its own generation (crashed
	// incarnation residue), not a new epoch.
	h2, err := lm.Acquire("s0", "a-w0")
	if err != nil {
		t.Fatal(err)
	}
	if h2.Epoch() != 1 {
		t.Fatalf("own-residue adoption bumped the epoch to %d", h2.Epoch())
	}
}

func TestLeaseStealAfterExpiryBumpsEpoch(t *testing.T) {
	lm, clk := testLM(t.TempDir(), time.Second)
	if _, err := lm.Acquire("s0", "dead-w0"); err != nil {
		t.Fatal(err)
	}
	// Inside TTL+grace the lease is protected.
	clk.advance(time.Second)
	if _, err := lm.Acquire("s0", "thief-w0"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("lease stolen inside the grace window: %v", err)
	}
	clk.advance(time.Second)
	h, err := lm.Acquire("s0", "thief-w0")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Stole() || h.Epoch() != 2 {
		t.Fatalf("steal: stole=%v epoch=%d, want stole, epoch 2", h.Stole(), h.Epoch())
	}
}

func TestLeaseEpochMonotonicAcrossRelease(t *testing.T) {
	lm, _ := testLM(t.TempDir(), time.Second)
	for want := uint64(1); want <= 4; want++ {
		h, err := lm.Acquire("s0", "a-w0")
		if err != nil {
			t.Fatal(err)
		}
		if h.Epoch() != want {
			t.Fatalf("generation %d has epoch %d", want, h.Epoch())
		}
		lm.Release(h)
	}
}

func TestLeaseRenewAndCheckFenceAfterSteal(t *testing.T) {
	lm, clk := testLM(t.TempDir(), time.Second)
	zombie, err := lm.Acquire("s0", "zombie-w0")
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(3 * time.Second)
	if _, err := lm.Acquire("s0", "thief-w0"); err != nil {
		t.Fatal(err)
	}
	if err := lm.Renew(zombie); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie renewal got %v, want ErrFenced", err)
	}
	if err := lm.Check(zombie); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie fence check got %v, want ErrFenced", err)
	}
}

func TestLeaseReleaseIsOwnerChecked(t *testing.T) {
	lm, clk := testLM(t.TempDir(), time.Second)
	zombie, err := lm.Acquire("s0", "zombie-w0")
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(3 * time.Second)
	thief, err := lm.Acquire("s0", "thief-w0")
	if err != nil {
		t.Fatal(err)
	}
	// The zombie's release must not tomb the thief's live lease.
	lm.Release(zombie)
	if err := lm.Check(thief); err != nil {
		t.Fatalf("zombie release disturbed the thief's lease: %v", err)
	}
}

func TestLeaseCorruptFileIsQuarantinedAndReclaimed(t *testing.T) {
	dir := t.TempDir()
	lm, _ := testLM(dir, time.Second)
	path := filepath.Join(dir, "s0"+LeaseSuffix)
	if err := os.WriteFile(path, []byte("{torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := lm.Acquire("s0", "a-w0")
	if err != nil {
		t.Fatalf("corrupt lease wedged the claim loop: %v", err)
	}
	if h.Epoch() != 1 {
		t.Fatalf("epoch %d after quarantine, want 1", h.Epoch())
	}
	if _, err := os.Stat(path + CorruptSuffix); err != nil {
		t.Fatalf("corrupt lease was not quarantined: %v", err)
	}
}

func TestLeaseHeartbeatKeepsLeaseAlive(t *testing.T) {
	lm := NewLeaseManager(t.TempDir(), 120*time.Millisecond, nil)
	h, err := lm.Acquire("s0", "a-w0")
	if err != nil {
		t.Fatal(err)
	}
	stop := lm.Heartbeat(context.Background(), h, nil)
	defer stop()
	time.Sleep(400 * time.Millisecond)
	// Well past the original TTL, still ours: the heartbeat renewed it.
	if err := lm.Check(h); err != nil {
		t.Fatalf("heartbeat failed to keep the lease alive: %v", err)
	}
	l, live, ok := lm.Peek("s0")
	if !ok || !live || l.Owner != "a-w0" {
		t.Fatalf("lease state after renewals: %+v live=%v ok=%v", l, live, ok)
	}
}

// TestLeaseHeartbeatFencesAfterSteal drives the real steal protocol
// against a live heartbeat: the zombie's clock is frozen (its renewals
// always write an already-lapsed expiry from the thief's point of view),
// the thief's clock is far ahead, and the thief steals through the tomb
// protocol. A renewal in flight during the steal may transiently win the
// file back — the documented renew-vs-steal race — so the thief re-steals
// until exactly one side fences; the zombie's heartbeat must report
// ErrFenced.
func TestLeaseHeartbeatFencesAfterSteal(t *testing.T) {
	dir := t.TempDir()
	zombieLM, _ := testLM(dir, 120*time.Millisecond) // frozen clock
	thiefLM, thiefClk := testLM(dir, 120*time.Millisecond)
	thiefClk.advance(time.Hour)

	h, err := zombieLM.Acquire("s0", "zombie-w0")
	if err != nil {
		t.Fatal(err)
	}
	fencedCh := make(chan error, 1)
	stop := zombieLM.Heartbeat(context.Background(), h, func(err error) { fencedCh <- err })
	defer stop()

	deadline := time.After(5 * time.Second)
	for {
		if _, err := thiefLM.Acquire("s0", "thief-w0"); err != nil && !errors.Is(err, ErrLeaseHeld) {
			t.Fatal(err)
		}
		select {
		case err := <-fencedCh:
			if !errors.Is(err, ErrFenced) {
				t.Fatalf("fence callback got %v, want ErrFenced", err)
			}
			return
		case <-deadline:
			t.Fatal("zombie heartbeat never fenced against the thief's steal")
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func TestCommitResultIsWriteOnce(t *testing.T) {
	dir := t.TempDir()
	io := newFSIO(nil, 0, 0)
	res := &ShardResult{Name: "s0", Scheme: "dagguise", Cycles: 100, DigestA: "aa", DigestB: "aa"}
	if err := commitResult(io, nil, nil, dir, res); err != nil {
		t.Fatal(err)
	}
	// Identical re-commit (a replayed deterministic shard) is idempotent.
	if err := commitResult(io, nil, nil, dir, res); err != nil {
		t.Fatalf("idempotent re-commit: %v", err)
	}
	committed, err := loadResult(io, dir, "s0")
	if err != nil {
		t.Fatal(err)
	}
	// A different result (a zombie that somehow dodged the lease check)
	// must be refused with ErrFenced, leaving the committed bytes intact.
	evil := *res
	evil.DigestB = "bb"
	evil.Interference = true
	if err := commitResult(io, nil, nil, dir, &evil); !errors.Is(err, ErrFenced) {
		t.Fatalf("conflicting commit got %v, want ErrFenced", err)
	}
	after, err := loadResult(io, dir, "s0")
	if err != nil {
		t.Fatal(err)
	}
	if after.DigestB != committed.DigestB || after.Interference {
		t.Fatal("conflicting commit clobbered the committed result")
	}
}

func TestCommitResultFencesBeforeWriting(t *testing.T) {
	dir := t.TempDir()
	lm, clk := testLM(dir, time.Second)
	io := newFSIO(nil, 0, 0)
	zombie, err := lm.Acquire("s0", "zombie-w0")
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(3 * time.Second)
	if _, err := lm.Acquire("s0", "thief-w0"); err != nil {
		t.Fatal(err)
	}
	res := &ShardResult{Name: "s0", Scheme: "dagguise", Cycles: 100}
	if err := commitResult(io, lm, zombie, dir, res); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie commit got %v, want ErrFenced", err)
	}
	if _, err := os.Stat(ResultName(dir, "s0")); !os.IsNotExist(err) {
		t.Fatal("fenced commit still deposited a result file")
	}
}

func TestCommitResultUnderInjectedFaults(t *testing.T) {
	dir := t.TempDir()
	inj, err := fault.NewFSInjector(fault.FSSchedule{Seed: 7, Events: []fault.FSEvent{
		{Kind: fault.FSTornWrite, Op: 0},
		{Kind: fault.FSWriteEIO, Op: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	io := newFSIO(inj, time.Millisecond, 2*time.Millisecond)
	res := &ShardResult{Name: "s0", Scheme: "dagguise", Cycles: 100, DigestA: "aa", DigestB: "aa"}
	if err := commitResult(io, nil, nil, dir, res); err != nil {
		t.Fatalf("commit under injected faults: %v", err)
	}
	got, err := loadResult(io, dir, "s0")
	if err != nil {
		t.Fatal(err)
	}
	if got.DigestA != "aa" {
		t.Fatal("committed result corrupted by injected faults")
	}
}

// TestSaveFrameTornWrite checks the streamed checkpoint write under
// injection: a torn write deposits the first half of the framed bytes,
// the same artifact a copying writer would leave, and a clean write
// after it leaves the full frame.
func TestSaveFrameTornWrite(t *testing.T) {
	inj, err := fault.NewFSInjector(fault.FSSchedule{Seed: 3, Events: []fault.FSEvent{{Kind: fault.FSTornWrite, Op: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	io := newFSIO(inj, time.Millisecond, 2*time.Millisecond)
	io.retries = 0
	path := filepath.Join(t.TempDir(), "pair.ckpt")
	payload := []byte(`{"a":1,"b":2}`)
	if err := io.saveFrame(path, payload); !errors.Is(err, fault.ErrInjectedIO) {
		t.Fatalf("torn write returned %v, want an injected IO error", err)
	}
	framed := ckpt.Frame(payload)
	if got, err := os.ReadFile(path); err != nil || string(got) != string(framed[:len(framed)/2]) {
		t.Fatalf("torn write left %q (err %v), want the first half of the frame", got, err)
	}
	if err := io.saveFrame(path, payload); err != nil {
		t.Fatal(err)
	}
	if got, err := ckpt.LoadFrame(path); err != nil || string(got) != string(payload) {
		t.Fatalf("after a clean write LoadFrame = %q, %v", got, err)
	}
}
