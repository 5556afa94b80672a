package audit

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// pollLimitCtx is a context whose Err starts reporting cancellation after a
// fixed number of polls, so a test can abandon a window at an exact point
// inside its calibration loops.
type pollLimitCtx struct {
	context.Context
	left int
}

func (c *pollLimitCtx) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// windowPin is one auditor run: its configuration, the synthetic stream fed
// to it, and the pinned outcome.
type windowPin struct {
	name string
	cfg  Config
	// pairs paired samples are pushed; class 0 draws base+Intn(spread),
	// class 1 base+shift+Intn(spread), from a math/rand stream seeded with
	// seed.
	pairs               int
	base, spread, shift uint64
	seed                int64
	// extra class-0 samples pushed after the pairs, then Flush evaluates
	// the partial window (flush only).
	extra int
	flush bool
	// cancelAfter > 0 pushes under a context that cancels at that poll,
	// then retries the abandoned window under a live context.
	cancelAfter int

	sum   string   // SHA-256 of the JSON-encoded []WindowReport
	draws []uint64 // generator draws after each window evaluation
}

// windowPins were recorded with the sort- and map-based KS and MI
// estimators, before window calibration was rank-coded: the coded kernels
// must reproduce every report byte and consume the same random stream.
var windowPins = []windowPin{
	{name: "w2-unbinned-ties", cfg: pinCfg(2, 0, 0, 20, 20, 3), pairs: 12, base: 100, spread: 3, seed: 1,
		sum: "37fff4415c4f10cd947b4fffddadff032a61210c1dd78e21f2353cfb84faac36", draws: []uint64{260, 260, 260, 260, 260, 260}},
	{name: "w7-stride3-bin1", cfg: pinCfg(7, 3, 1, 33, 25, 4), pairs: 30, base: 200, spread: 9, shift: 2, seed: 2,
		sum: "15193152806f6bf1e36bb4cdab5ead302498f19769bcd7d9de72297f33d1c76a", draws: []uint64{1637, 1637, 1637, 1637, 1637, 1637, 1637, 1637}},
	{name: "w20-bin4-leak", cfg: pinCfg(20, 0, 4, 40, 40, 5), pairs: 60, base: 150, spread: 32, shift: 40, seed: 3,
		sum: "d8e88f744b223c0d03ea0e20c28963a995b9a5b2c5aff4095fee1b21bea31027", draws: []uint64{6280, 6280, 6280}},
	{name: "w50-bin8-mild", cfg: pinCfg(50, 0, 8, 80, 60, 6), pairs: 100, base: 180, spread: 48, shift: 6, seed: 4,
		sum: "36f1eba449b51ede65717dcdd031e41345ab0522805ba9f99b9d40bfe04fff69", draws: []uint64{29760, 29760}},
	{name: "w64-bin64-huge", cfg: pinCfg(64, 32, 64, 50, 80, 7), pairs: 128, base: 1<<40 - 2000, spread: 4000, shift: 64, seed: 5,
		sum: "3ec5057cff552f259619bec7d8e256cf65fa3b8274b8d10aac3177db1151c70f", draws: []uint64{29290, 29290, 29290}},
	{name: "w160-bin16", cfg: pinCfg(160, 0, 16, 20, 20, 8), pairs: 160, base: 90, spread: 400, shift: 10, seed: 6,
		sum: "0df2c09962c9d9c74cc3a4e6af84e7a5744210cb110950d55b1bcc910aa77352", draws: []uint64{25540}},
	{name: "w30-bin2-flush", cfg: pinCfg(30, 0, 2, 30, 30, 9), pairs: 75, base: 120, spread: 20, shift: 5, seed: 7, extra: 4, flush: true,
		sum: "da131a594af21fdff5b41db796b5b84c64406b7de444a1edc616ef228790cfac", draws: []uint64{7110, 7110, 3990}},
	{name: "w25-bin8-cancel", cfg: pinCfg(25, 0, 8, 40, 40, 10), pairs: 75, base: 300, spread: 24, shift: 12, seed: 8, cancelAfter: 1 + 3*40 + 40 + 1 + 40 + 17,
		sum: "7899ddcaeb059757e88cd935573b000b8db1d44c77bf5a540705bf60501edfe4", draws: []uint64{7880, 2793, 7880, 7880}},
}

func pinCfg(window, stride int, binWidth uint64, perms, boot int, seed int64) Config {
	cfg := DefaultConfig()
	cfg.Window, cfg.Stride, cfg.BinWidth = window, stride, binWidth
	cfg.Permutations, cfg.Bootstrap, cfg.Seed = perms, boot, seed
	return cfg
}

// run feeds the pin's stream and returns the window reports and the draw
// count after every window evaluation.
func (p windowPin) run(t *testing.T) ([]WindowReport, []uint64) {
	t.Helper()
	a, err := New(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var draws []uint64
	var ctx context.Context = context.Background()
	if p.cancelAfter > 0 {
		ctx = &pollLimitCtx{Context: ctx, left: p.cancelAfter}
	}
	canceled := false
	push := func(secret int, s Sample) {
		before := a.Audited()
		err := a.PushCtx(ctx, secret, s)
		if errors.Is(err, ErrCanceled) && !canceled {
			canceled = true
			draws = append(draws, a.draws)
			ctx = context.Background()
			before = a.Audited()
			err = a.drainCtx(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		switch a.Audited() - before {
		case 0:
		case 1:
			draws = append(draws, a.draws)
		default:
			t.Fatalf("one push audited %d windows", a.Audited()-before)
		}
	}
	rnd := rand.New(rand.NewSource(p.seed))
	for i := 0; i < p.pairs; i++ {
		c := uint64(i) * 97
		push(0, Sample{Cycle: c, Value: p.base + uint64(rnd.Intn(int(p.spread)))})
		push(1, Sample{Cycle: c + 13, Value: p.base + p.shift + uint64(rnd.Intn(int(p.spread)))})
	}
	for i := 0; i < p.extra; i++ {
		push(0, Sample{Cycle: uint64(p.pairs+i) * 97, Value: p.base + uint64(rnd.Intn(int(p.spread)))})
	}
	if p.cancelAfter > 0 && !canceled {
		t.Fatal("the poll limit never canceled a window")
	}
	if p.flush {
		rep, err := a.Flush()
		if err != nil || rep == nil {
			t.Fatalf("flush = (%v, %v), want a partial window", rep, err)
		}
		draws = append(draws, a.draws)
	}
	return a.Windows(), draws
}

// TestWindowPins pins, for a fixed set of configurations (window sizes
// 2–160, bin widths 0–64, 20–80 permutations and resamples, overlapping
// strides, a partial Flush and a canceled-then-retried window), the exact
// encoded window reports and the random draws each window consumed.
func TestWindowPins(t *testing.T) {
	for _, p := range windowPins {
		t.Run(p.name, func(t *testing.T) {
			ws, draws := p.run(t)
			enc, err := json.Marshal(ws)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(enc)
			got := hex.EncodeToString(sum[:])
			if got != p.sum || fmt.Sprint(draws) != fmt.Sprint(p.draws) {
				t.Fatalf("%d windows drifted from the pin:\n sum %s (want %s)\n draws %#v\n (want %#v)",
					len(ws), got, p.sum, draws, p.draws)
			}
		})
	}
}
