// Package runner holds the two supervision primitives shared by the
// campaign tools: WithSignals, which turns SIGINT/SIGTERM into ordinary
// context cancellation, and BackoffDelay, the bounded, deterministically
// jittered retry delay. Campaigns themselves run as fleets (see
// internal/fleet).
package runner

import (
	"context"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dagguise/internal/rng"
)

// WithSignals derives a context that cancels on SIGINT or SIGTERM, so a ^C
// or a supervisor's terminate lands as ordinary cooperative cancellation:
// the running work stops at its next checkpoint boundary and the caller
// exits resumably.
func WithSignals(ctx context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
}

// BackoffDelay computes the supervised-retry delay for the given attempt:
// 2^attempt * base, capped at the configurable max before jitter is
// applied, with a deterministic jitter drawn from (seed, attempt) placing
// the result in [cap/2, cap]. The growth loop stops at the cap, so the
// delay is bounded no matter how many retries a flaky job accumulates, and
// the jitter is a pure function of its inputs, so campaign wall-clock
// behaviour replays exactly from a seed. Shared with the dagauditd client
// library, whose retry loop needs the identical bounded-and-deterministic
// contract.
func BackoffDelay(base, max time.Duration, seed int64, attempt int) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	if max < base {
		max = base
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	jit := rng.New(seed + int64(attempt))
	return d/2 + time.Duration(jit.Int63n(int64(d/2)+1))
}
