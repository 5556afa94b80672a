// Package audit is the streaming leakage-audit layer: it taps the
// attacker-observable response timing of a running simulation and computes
// secret-conditioned statistics online, window by window, so the repo's
// central security claim — that shaped egress carries no victim-dependent
// timing information — is a continuously observable property rather than a
// one-off offline table.
//
// The pipeline: probe hooks in internal/attack and internal/sim record
// (cycle, value) samples into a Tap per secret run; an Auditor consumes the
// two streams and, every Stride samples, evaluates a sliding window with
// three detectors — Welch's t-test (TVLA-style first-order), the
// Kolmogorov–Smirnov distance (distribution-free shape), and windowed
// mutual information with Miller–Madow bias correction. Thresholds are
// calibrated per window by permutation testing (so the false-positive rate
// is Alpha by construction, not a hard-coded magic number), and the MI
// point estimate carries a bootstrap confidence interval. The first window
// whose calibrated, bias-corrected leakage exceeds the configured budget is
// flagged with its cycle range, so the operator can jump straight to that
// point in a Perfetto trace exported by internal/obs.
//
// Like internal/obs, the collection side is measurement-only and nil-safe:
// every Tap method is a no-op on the nil pointer, and internal/sim's
// non-interference test pins the shaped egress stream bit-identical with
// auditing on and off.
package audit

import (
	"context"
	"encoding/json"
	"fmt"

	"dagguise/internal/rng"
	"dagguise/internal/stats"
)

// Sample is one attacker-observable timing sample: the simulation cycle it
// was observed at and its value (a probe response latency in the attack
// harness, a response inter-arrival gap in the full-system tap).
type Sample struct {
	Cycle uint64 `json:"cycle"`
	Value uint64 `json:"value"`
}

// Tap collects attacker-observable samples from a probe hook. Components
// hold a possibly-nil *Tap and call Record unconditionally: every method is
// a no-op on the nil receiver, so a disabled audit costs one predictable
// nil check per observation site and nothing else.
type Tap struct {
	samples []Sample
}

// NewTap returns an empty tap.
func NewTap() *Tap { return &Tap{} }

// Record appends one sample. No-op on nil.
func (t *Tap) Record(cycle, value uint64) {
	if t == nil {
		return
	}
	t.samples = append(t.samples, Sample{Cycle: cycle, Value: value})
}

// Samples returns the recorded samples in observation order (nil on nil).
func (t *Tap) Samples() []Sample {
	if t == nil {
		return nil
	}
	return t.samples
}

// Len returns the number of recorded samples.
func (t *Tap) Len() int {
	if t == nil {
		return 0
	}
	return len(t.samples)
}

// Reset discards the recorded samples.
func (t *Tap) Reset() {
	if t == nil {
		return
	}
	t.samples = t.samples[:0]
}

// Config parameterises an Auditor.
type Config struct {
	// Window is the number of samples per secret evaluated together
	// (must be at least 2; Welch's t needs a variance estimate).
	Window int `json:"window"`
	// Stride is the spacing between window starts; 0 selects Window
	// (tumbling windows), smaller values overlap.
	Stride int `json:"stride"`
	// BinWidth is the MI histogram bin width (0 = every distinct value is
	// its own bin).
	BinWidth uint64 `json:"bin_width"`
	// Budget is the leakage budget in bits: a window "exceeds" when a
	// calibrated detector rejects the null AND its bias-corrected MI is
	// above this budget.
	Budget float64 `json:"budget_bits"`
	// Alpha is the per-window false-positive rate the permutation
	// calibration targets.
	Alpha float64 `json:"alpha"`
	// Permutations is the number of label shuffles per window used to
	// estimate each detector's null distribution.
	Permutations int `json:"permutations"`
	// Bootstrap is the number of resamples behind the MI confidence
	// interval.
	Bootstrap int `json:"bootstrap"`
	// Confidence is the CI level (e.g. 0.95).
	Confidence float64 `json:"confidence"`
	// Seed drives the permutation and bootstrap RNG; every window derives
	// its own deterministic stream from it, so reports are reproducible.
	Seed int64 `json:"seed"`
}

// DefaultConfig returns the calibration defaults used by cmd/dagaudit and
// the CI leakage gate.
func DefaultConfig() Config {
	return Config{
		Window:       100,
		Stride:       0, // = Window
		BinWidth:     8,
		Budget:       0.05,
		Alpha:        0.01,
		Permutations: 200,
		Bootstrap:    200,
		Confidence:   0.95,
		Seed:         1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Window < 2 {
		return fmt.Errorf("audit: window %d too small (need >= 2)", c.Window)
	}
	if c.Stride < 0 {
		return fmt.Errorf("audit: negative stride %d", c.Stride)
	}
	if c.Budget < 0 {
		return fmt.Errorf("audit: negative budget %f", c.Budget)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("audit: alpha %f outside (0, 1)", c.Alpha)
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return fmt.Errorf("audit: confidence %f outside (0, 1)", c.Confidence)
	}
	if c.Permutations < 1 || c.Bootstrap < 1 {
		return fmt.Errorf("audit: need at least one permutation and bootstrap resample")
	}
	return nil
}

// stride returns the effective window spacing.
func (c Config) stride() int {
	if c.Stride == 0 {
		return c.Window
	}
	return c.Stride
}

// WindowReport is the audit outcome of one sliding window.
type WindowReport struct {
	// Index is the window's ordinal; Start its sample offset into each
	// secret's stream.
	Index int `json:"index"`
	Start int `json:"start"`
	// StartCycle / EndCycle bound the simulation cycles the window covers
	// (across both secret runs) — the jump target for a Perfetto trace.
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`
	// T is the absolute Welch's t statistic and TThreshold its
	// permutation-calibrated rejection threshold; likewise KS and MI.
	T           float64 `json:"t"`
	TThreshold  float64 `json:"t_threshold"`
	KS          float64 `json:"ks"`
	KSThreshold float64 `json:"ks_threshold"`
	// MI is the Miller–Madow-corrected windowed mutual information in
	// bits, with a percentile-bootstrap confidence interval [MILo, MIHi].
	MI          float64 `json:"mi_bits"`
	MILo        float64 `json:"mi_lo"`
	MIHi        float64 `json:"mi_hi"`
	MIThreshold float64 `json:"mi_threshold"`
	// Detectors lists the calibrated detectors that rejected the
	// no-leakage null on this window ("welch", "ks", "mi").
	Detectors []string `json:"detectors,omitempty"`
	// Exceeded marks the window as over the leakage budget: a detector
	// fired and the corrected MI is above Config.Budget.
	Exceeded bool `json:"exceeded"`
}

// Auditor consumes two secret-conditioned sample streams and audits every
// full window as soon as both streams reach it. It is single-goroutine,
// deterministic for a fixed Config, and never mutates the samples it is
// fed — the simulation cannot observe it.
//
// Long-running consumers (the dagauditd service) keep its memory bounded
// with Compact, which discards samples no future window can reference, and
// TakeWindows, which hands off finished reports for external aggregation.
// Offsets reported in WindowReport.Start are absolute stream positions and
// are unaffected by compaction.
type Auditor struct {
	cfg Config
	// base is the absolute stream offset of streams[i][0]: Compact drops
	// consumed prefixes and advances it, so all window arithmetic runs on
	// absolute offsets while memory stays bounded.
	base    int
	streams [2][]Sample
	next    int // absolute start offset of the next unprocessed window
	done    int // windows audited since creation (survives TakeWindows)
	windows []WindowReport
	// draws counts the random draws the most recent window evaluation
	// consumed, abandoned ones included: a deterministic work counter.
	draws uint64
}

// New builds an Auditor for the configuration.
func New(cfg Config) (*Auditor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Auditor{cfg: cfg}, nil
}

// Push appends one sample observed under the given secret (0 or 1) and
// processes any windows that became complete.
func (a *Auditor) Push(secret int, s Sample) error {
	return a.PushCtx(context.Background(), secret, s)
}

// PushTap feeds every sample of the tap under the given secret.
func (a *Auditor) PushTap(secret int, t *Tap) error {
	return a.PushTapCtx(context.Background(), secret, t)
}

// evalWindow computes one window report over the two (possibly
// unequal-length, for the final partial flush) sample windows. The window
// index is taken from — and advances — the auditor's lifetime counter, so
// every window derives its own RNG stream from (Seed, index) and the report
// is identical no matter how the pushes were interleaved or how often the
// auditor was compacted, checkpointed and restored. A canceled context
// leaves the counter untouched so a later retry reproduces the same report.
func (a *Auditor) evalWindow(ctx context.Context, start int, win0, win1 []Sample) (WindowReport, error) {
	v0 := make([]uint64, len(win0))
	v1 := make([]uint64, len(win1))
	for i := range win0 {
		v0[i] = win0[i].Value
	}
	for i := range win1 {
		v1[i] = win1[i].Value
	}

	// Code the pooled window once: every statistic below, observed or
	// resampled, counts codes of this pool.
	pool := stats.Pool(v0, v1, a.cfg.BinWidth)
	ident := pool.Identity()
	idx := a.done
	rep := WindowReport{
		Index:      idx,
		Start:      start,
		StartCycle: minCycle(win0, win1),
		EndCycle:   maxCycle(win0, win1),
		T:          pool.WelchT(ident),
		KS:         pool.KS(ident),
		MI:         pool.MI(ident),
	}

	rnd := rng.New(a.cfg.Seed*1_000_003 + int64(idx))
	defer func() { a.draws = rnd.State().Draws }()
	var err error
	if rep.TThreshold, err = PermutationThresholdCtx(ctx, pool, (*stats.Pooled).WelchT, a.cfg.Permutations, a.cfg.Alpha, rnd); err != nil {
		return rep, err
	}
	if rep.KSThreshold, err = PermutationThresholdCtx(ctx, pool, (*stats.Pooled).KS, a.cfg.Permutations, a.cfg.Alpha, rnd); err != nil {
		return rep, err
	}
	if rep.MIThreshold, err = PermutationThresholdCtx(ctx, pool, (*stats.Pooled).MI, a.cfg.Permutations, a.cfg.Alpha, rnd); err != nil {
		return rep, err
	}
	if rep.MILo, rep.MIHi, err = BootstrapCICtx(ctx, pool, (*stats.Pooled).MI, a.cfg.Bootstrap, a.cfg.Confidence, rnd); err != nil {
		return rep, err
	}

	if rep.T > rep.TThreshold {
		rep.Detectors = append(rep.Detectors, "welch")
	}
	if rep.KS > rep.KSThreshold {
		rep.Detectors = append(rep.Detectors, "ks")
	}
	if rep.MI > rep.MIThreshold {
		rep.Detectors = append(rep.Detectors, "mi")
	}
	rep.Exceeded = len(rep.Detectors) > 0 && rep.MI > a.cfg.Budget
	a.done = idx + 1
	return rep, nil
}

// Audited returns the number of windows evaluated over the auditor's
// lifetime, including reports already handed off with TakeWindows.
func (a *Auditor) Audited() int { return a.done }

// Pending returns, per secret class, how many accepted samples are waiting
// beyond the last evaluated window.
func (a *Auditor) Pending() [2]int {
	var p [2]int
	for i := range a.streams {
		p[i] = a.base + len(a.streams[i]) - a.next
		if p[i] < 0 {
			p[i] = 0
		}
	}
	return p
}

// Compact discards every sample no future window can reference (the prefix
// below the next unprocessed window start), bounding the auditor's memory
// to O(Window) for tumbling windows regardless of stream length. Reports
// are unaffected: window indices, offsets and RNG streams are all absolute.
func (a *Auditor) Compact() {
	cut := a.next - a.base
	for i := range a.streams {
		if n := len(a.streams[i]); n < cut {
			cut = n
		}
	}
	if cut <= 0 {
		return
	}
	for i := range a.streams {
		rem := copy(a.streams[i], a.streams[i][cut:])
		a.streams[i] = a.streams[i][:rem]
	}
	a.base += cut
}

// TakeWindows returns the window reports accumulated since the last call
// and clears the retained slice, so a long-running consumer can fold them
// into its own bounded aggregate. Window indices keep counting across
// calls; Report only covers windows still retained.
func (a *Auditor) TakeWindows() []WindowReport {
	ws := a.windows
	a.windows = nil
	return ws
}

// Flush force-evaluates one final partial window over whatever samples are
// pending beyond the last full window — the end-of-stream audit of a
// tenant that stopped short of Config.Window. A starved stream (fewer than
// 2 pending samples in either secret class) cannot be calibrated and
// returns a wrapped ErrInsufficientSamples; with nothing pending at all it
// returns (nil, nil). The evaluated window is also appended to Windows.
func (a *Auditor) Flush() (*WindowReport, error) { return a.FlushCtx(context.Background()) }

// FlushCtx is Flush with cooperative cancellation threaded through the
// calibration loops.
func (a *Auditor) FlushCtx(ctx context.Context) (*WindowReport, error) {
	p := a.Pending()
	if p[0] == 0 && p[1] == 0 {
		return nil, nil
	}
	if p[0] < 2 || p[1] < 2 {
		return nil, fmt.Errorf("%w: %d and %d pending samples past window %d",
			ErrInsufficientSamples, p[0], p[1], a.done)
	}
	rel := a.next - a.base
	rep, err := a.evalWindow(ctx, a.next, a.streams[0][rel:], a.streams[1][rel:])
	if err != nil {
		return nil, err
	}
	a.windows = append(a.windows, rep)
	// The flushed samples are consumed: advance past the longer side so a
	// subsequent Flush is a no-op and Compact can reclaim them.
	a.next = a.base + max(len(a.streams[0]), len(a.streams[1]))
	return &rep, nil
}

func minCycle(a, b []Sample) uint64 {
	m := a[0].Cycle
	if b[0].Cycle < m {
		m = b[0].Cycle
	}
	return m
}

func maxCycle(a, b []Sample) uint64 {
	m := a[len(a)-1].Cycle
	if c := b[len(b)-1].Cycle; c > m {
		m = c
	}
	return m
}

// Windows returns the audited windows so far.
func (a *Auditor) Windows() []WindowReport { return a.windows }

// Report is the full audit outcome: the input shape, every window's
// statistics, and the budget verdict. Field order (and therefore the JSON
// encoding) is fixed, and every number is deterministic for a fixed
// Config, so reports are golden-testable and diffable across CI runs.
type Report struct {
	Scheme string `json:"scheme"`
	Config Config `json:"config"`
	// Samples counts the observations consumed per secret.
	Samples [2]int         `json:"samples"`
	Windows []WindowReport `json:"windows"`
	// FirstExceeded is the index of the first window over budget (-1 if
	// none); FirstExceededCycle is that window's StartCycle.
	FirstExceeded      int    `json:"first_exceeded_window"`
	FirstExceededCycle uint64 `json:"first_exceeded_cycle"`
	// MaxMI is the largest corrected windowed MI observed.
	MaxMI float64 `json:"max_mi_bits"`
	// WithinBudget is the CI gate: true when no window exceeded.
	WithinBudget bool `json:"within_budget"`
}

// Report summarises everything audited so far under the given scheme name.
func (a *Auditor) Report(scheme string) *Report {
	r := &Report{
		Scheme:        scheme,
		Config:        a.cfg,
		Samples:       [2]int{a.base + len(a.streams[0]), a.base + len(a.streams[1])},
		Windows:       a.windows,
		FirstExceeded: -1,
		WithinBudget:  true,
	}
	for _, w := range a.windows {
		if w.MI > r.MaxMI {
			r.MaxMI = w.MI
		}
		if w.Exceeded && r.FirstExceeded < 0 {
			r.FirstExceeded = w.Index
			r.FirstExceededCycle = w.StartCycle
			r.WithinBudget = false
		}
	}
	return r
}

// JSON renders the report as stable, indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Format renders the report as an aligned text summary.
func (r *Report) Format() string {
	out := fmt.Sprintf("leakage audit: scheme=%s windows=%d window=%d stride=%d budget=%.3f bits alpha=%.3f\n",
		r.Scheme, len(r.Windows), r.Config.Window, r.Config.stride(), r.Config.Budget, r.Config.Alpha)
	out += fmt.Sprintf("%4s %12s %12s %10s %10s %10s %24s %s\n",
		"win", "cycles", "t(thr)", "ks(thr)", "mi", "thr", "ci", "verdict")
	for _, w := range r.Windows {
		verdict := "ok"
		if len(w.Detectors) > 0 {
			verdict = "trip:" + joinDetectors(w.Detectors)
		}
		if w.Exceeded {
			verdict = "LEAK " + joinDetectors(w.Detectors)
		}
		out += fmt.Sprintf("%4d %12s %6.1f(%4.1f) %5.3f(%.3f) %10.4f %10.4f %10.4f..%-10.4f %s\n",
			w.Index, fmt.Sprintf("%d..%d", w.StartCycle, w.EndCycle),
			clipT(w.T), clipT(w.TThreshold), w.KS, w.KSThreshold,
			w.MI, w.MIThreshold, w.MILo, w.MIHi, verdict)
	}
	if r.WithinBudget {
		out += fmt.Sprintf("result: within budget (max windowed MI %.4f <= %.4f bits)\n", r.MaxMI, r.Config.Budget)
	} else {
		out += fmt.Sprintf("result: LEAK — window %d exceeds the %.4f-bit budget starting at cycle %d (max windowed MI %.4f)\n",
			r.FirstExceeded, r.Config.Budget, r.FirstExceededCycle, r.MaxMI)
	}
	return out
}

// clipT keeps the degenerate-variance t sentinel readable in text output.
func clipT(t float64) float64 {
	if t > 9999 {
		return 9999
	}
	return t
}

func joinDetectors(ds []string) string {
	out := ""
	for i, d := range ds {
		if i > 0 {
			out += ","
		}
		out += d
	}
	return out
}
