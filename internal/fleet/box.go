package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dagguise/internal/audit"
	"dagguise/internal/config"
	"dagguise/internal/sim"
	"dagguise/internal/trace"
	"dagguise/internal/victim"
	"dagguise/internal/workload"
)

// KindBox is the Sweep.Kind of single-box fault campaigns: each shard is
// one (scheme, seed) cell on the two-core machine of BoxMachine, run
// under the shard's fault schedule with the forward-progress watchdog
// armed.
const KindBox = "box"

// BoxRun is one machine's outcome in a box shard. It is state-derived
// only, so an interrupted and resumed shard reproduces it byte for byte.
type BoxRun struct {
	// Secret is the victim's secret; set only on twin runs.
	Secret       int      `json:"secret,omitempty"`
	Cycle        uint64   `json:"cycle"`
	Instructions []uint64 `json:"instructions"`
	// TapSamples and TapSHA summarise the victim domain's audit tap (the
	// attacker-observable response-timing stream); set only on twin runs.
	TapSamples int    `json:"tap_samples,omitempty"`
	TapSHA     string `json:"tap_sha256,omitempty"`
}

// BoxMachine wires the single-box campaign machine: a protected DocDist
// victim carrying the given secret and one unprotected co-runner.
func BoxMachine(scheme config.Scheme, app string, secret int) (*sim.System, error) {
	tr, err := victim.DocDistTrace(int64(secret), victim.DefaultDocDist())
	if err != nil {
		return nil, err
	}
	prog, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	return sim.New(config.Default(2, scheme), []sim.CoreSpec{
		{Name: "docdist", Source: &trace.Loop{Inner: tr}, Protected: true},
		{Name: app, Source: workload.MustSource(prog, 5)},
	})
}

// boxRuns is the box kind's machines: one per secret, each with an audit
// tap on the victim's domain when the shard runs twins. The taps are part
// of the checkpointed state.
type boxRuns struct {
	secrets []int
	sys     []*sim.System
	taps    []*audit.Tap
}

func (b *boxRuns) Now() uint64 { return b.sys[0].Now() }

func (b *boxRuns) Run(ctx context.Context, cycles uint64) error {
	for _, sys := range b.sys {
		if err := sys.RunCheckedCtx(ctx, cycles); err != nil {
			return err
		}
	}
	return nil
}

func (b *boxRuns) Counters() sim.ClusterCounters { return sim.ClusterCounters{} }

func (b *boxRuns) Save() (any, error) {
	states := make([]*sim.SystemState, len(b.sys))
	for i, sys := range b.sys {
		st, err := sys.SaveState()
		if err != nil {
			return nil, err
		}
		states[i] = st
	}
	return states, nil
}

func (b *boxRuns) Restore(payload []byte) error {
	var states []*sim.SystemState
	if err := json.Unmarshal(payload, &states); err != nil {
		return err
	}
	if len(states) != len(b.sys) {
		return fmt.Errorf("%d machines saved, shard runs %d", len(states), len(b.sys))
	}
	for i, sys := range b.sys {
		if err := sys.RestoreState(states[i]); err != nil {
			return fmt.Errorf("secret %d: %w", b.secrets[i], err)
		}
	}
	return nil
}

// runBoxShard executes one box shard: the victim with secret A (and, with
// twin set, with secret B) under the shard's fault schedule, advanced in
// checkpointed chunks with the watchdog armed. Twins are compared by
// their audit-tap digests. The pool runs twins for DAGguise, the scheme
// whose non-interference the campaign certifies.
func runBoxShard(ctx context.Context, app string, sh Shard, opt ShardOptions, twin bool) (*ShardResult, error) {
	scheme, err := config.ParseScheme(sh.Scheme)
	if err != nil {
		return nil, err
	}
	b := &boxRuns{secrets: []int{opt.SecretA}}
	if twin {
		b.secrets = append(b.secrets, opt.SecretB)
	}
	for _, secret := range b.secrets {
		sys, err := BoxMachine(scheme, app, secret)
		if err != nil {
			return nil, err
		}
		if opt.Attach != nil {
			opt.Attach(sys)
		}
		if err := sys.AttachFaults(opt.Faults); err != nil {
			return nil, fmt.Errorf("fleet: shard %s faults: %w", sh.Name, err)
		}
		if twin {
			tap := audit.NewTap()
			sys.AuditResponses(1, tap)
			b.taps = append(b.taps, tap)
		}
		b.sys = append(b.sys, sys)
	}
	if err := drive(ctx, sh, opt, b); err != nil {
		return nil, err
	}
	res := &ShardResult{
		Name:        sh.Name,
		Scheme:      sh.Scheme,
		Seed:        sh.Seed,
		Cycles:      sh.Cycles,
		FaultEvents: len(opt.Faults.Events),
	}
	for i, sys := range b.sys {
		run := BoxRun{Cycle: sys.Now()}
		for c := 0; c < sys.NumDomains()-1; c++ {
			run.Instructions = append(run.Instructions, sys.Core(c).Stats().Instructions)
		}
		if twin {
			run.Secret = b.secrets[i]
			run.TapSamples = b.taps[i].Len()
			run.TapSHA = tapDigest(b.taps[i])
		}
		res.Runs = append(res.Runs, run)
	}
	if twin {
		res.DigestA, res.DigestB = res.Runs[0].TapSHA, res.Runs[1].TapSHA
		res.Interference = res.DigestA != res.DigestB
	}
	return res, nil
}

// tapDigest hashes the (cycle, value) response-timing stream.
func tapDigest(t *audit.Tap) string {
	h := sha256.New()
	var buf [16]byte
	for _, s := range t.Samples() {
		binary.LittleEndian.PutUint64(buf[:8], s.Cycle)
		binary.LittleEndian.PutUint64(buf[8:], s.Value)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
