// Package sim wires the full simulated machine together: trace-driven
// cores with private cache hierarchies, optional DAGguise or Camouflage
// shapers per protected domain, a shared memory controller with the
// configured scheduling policy (insecure FR-FCFS, FS, FS-BTA, TP), and the
// DRAM device model. It drives everything cycle by cycle and reports
// per-core IPC and bandwidth, the measurements behind Figures 7, 9 and 10.
package sim

import (
	"fmt"

	"dagguise/internal/audit"
	"dagguise/internal/cache"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/cpu"
	"dagguise/internal/dram"
	"dagguise/internal/fault"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/obs"
	"dagguise/internal/rdag"
	"dagguise/internal/sched"
	"dagguise/internal/shaper"
	"dagguise/internal/trace"
)

// CPUFrequencyHz is the simulated core clock (Table 2).
const CPUFrequencyHz = 2.4e9

// privateQueueDepth is the per-domain private transaction queue depth of
// the shaper hardware (8 entries in the paper's area evaluation).
const privateQueueDepth = 8

// CoreSpec describes one core's software and protection needs.
type CoreSpec struct {
	// Name labels the core in results.
	Name string
	// Source supplies the core's trace (usually an infinite/looped one).
	Source trace.Source
	// Protected marks the core's domain as security sensitive. Under
	// DAGguise it gets a request shaper, under Camouflage a distribution
	// shaper, and under FS/FS-BTA/TP its own slot group.
	Protected bool
	// Defense is the defense rDAG template for DAGguise (ignored
	// otherwise). Zero value selects a reasonable default.
	Defense rdag.Template
	// Distribution is the target interval distribution for Camouflage.
	Distribution camouflage.Distribution
}

// System is a fully wired simulated machine.
type System struct {
	cfg    config.SystemConfig
	mapper *mem.Mapper
	dev    *dram.Device
	ctrl   *memctrl.Controller
	policy memctrl.Scheduler
	cores  []*cpu.Core
	specs  []CoreSpec

	// lanes holds each domain's shaping state, indexed by domain (slot
	// 0, the unattributed domain, stays empty).
	lanes []lane
	order []mem.Domain // shaped domains in service order, deterministic

	// Fault injection and forward-progress watchdog (nil/zero = off).
	faults   *fault.Injector
	wd       Watchdog
	deferred []deferredResp // responses withheld by delay/drop faults
	portErr  error          // routing violation raised inside a port this tick

	lastProgress uint64 // last cycle with retirement or delivery
	lastRetired  uint64 // total retired instructions at lastProgress

	traceOn bool
	traces  map[mem.Domain][]EgressEvent

	// Observability (nil = off); measurement only, never consulted by the
	// simulated machine (see TestObservabilityNonInterference).
	mx    *obs.Registry
	tr    *obs.Tracer
	prof  *obs.CycleProfile
	spans *obs.Spans

	// Leakage-audit taps per domain (nil map = off); like mx/tr they are
	// write-only from the machine's perspective (see
	// TestAuditTapNonInterference).
	auditTaps map[mem.Domain]*audit.Tap
	auditLast map[mem.Domain]uint64

	now    uint64
	nextID uint64
}

// lane is one domain's path from its core to the controller. A shaped
// domain has exactly one of sh (DAGguise) and camo (Camouflage); its
// emissions stage in egress, whose peak depth is hw. Unshaped lanes stay
// zero.
type lane struct {
	sh     *shaper.Shaper
	camo   *camouflage.Shaper
	egress []mem.Request
	hw     int
}

// deferredResp is a response withheld by a delay/drop fault, due for
// redelivery at cycle at. The slice stays insertion-ordered, so redelivery
// order is deterministic: by due cycle, ties broken by original completion
// order.
type deferredResp struct {
	at   uint64
	resp mem.Response
}

// EgressEvent is one externally observable shaper emission: the cycle it
// entered the egress path, the flat bank it targets and its read/write
// kind. Addresses and IDs are deliberately excluded — they may differ
// between runs with different victim secrets, while the
// (cycle, bank, kind) stream is exactly what the paper proves
// secret-independent.
type EgressEvent struct {
	Cycle uint64
	Bank  int
	Kind  mem.Kind
}

// domainOf maps core index to its security domain (domains start at 1;
// domain 0 is reserved for unattributed traffic).
func domainOf(core int) mem.Domain { return mem.Domain(core + 1) }

// New builds a system from the configuration and core specs.
func New(cfg config.SystemConfig, specs []CoreSpec) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d core specs for %d cores", len(specs), cfg.Cores)
	}
	// The row-buffer-aware extension (§4.4): when every protected
	// domain's defense rDAG encodes its own row-hit pattern, the
	// closed-row policy is unnecessary — the rDAG prescribes the
	// row-buffer behaviour instead.
	if cfg.Scheme == config.DAGguise {
		rowAware := false
		for _, spec := range specs {
			if spec.Protected && spec.Defense.RowHitRatio > 0 {
				rowAware = true
			} else if spec.Protected {
				rowAware = false
				break
			}
		}
		if rowAware {
			cfg.ClosedRow = false
		}
	}
	mapper := mem.MustMapper(cfg.Geometry)
	dev := dram.New(cfg.Timing, mapper, cfg.ClosedRow)

	s := &System{
		cfg:    cfg,
		mapper: mapper,
		dev:    dev,
		lanes:  make([]lane, cfg.Cores+1),
		specs:  specs,
	}

	policy, err := s.buildPolicy(specs)
	if err != nil {
		return nil, err
	}
	s.policy = policy
	// Every scheme partitions the transaction queue per domain: real
	// controllers give each source its own read queue/credits, and a
	// shared queue lets one streaming core monopolise entries and starve
	// the rest (for the secure schemes partitioning is mandatory — see
	// Controller.PartitionQueue).
	s.ctrl = memctrl.New(dev, mapper, policy, privateQueueDepth*cfg.Cores)
	s.ctrl.PartitionQueue(privateQueueDepth)

	alloc := cpu.IDAlloc(s.alloc)
	for i, spec := range specs {
		dom := domainOf(i)
		hier, err := cache.NewHierarchy(cfg)
		if err != nil {
			return nil, err
		}
		port, err := s.buildPort(dom, spec)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, cpu.New(dom, spec.Source, hier, cfg.Core, port, alloc))
	}
	return s, nil
}

func (s *System) alloc() uint64 {
	s.nextID++
	return s.nextID
}

// buildPolicy selects the scheduling policy for the configured scheme.
func (s *System) buildPolicy(specs []CoreSpec) (memctrl.Scheduler, error) {
	switch s.cfg.Scheme {
	case config.Insecure, config.Camouflage:
		return memctrl.FRFCFS{}, nil
	case config.DAGguise:
		// DAGguise keeps the high-performance scheduler: dynamic
		// contention is safe because the shaped stream is already
		// secret-independent.
		return memctrl.FRFCFS{}, nil
	case config.FixedService, config.FSBTA, config.TemporalPartitioning:
		groups := buildGroups(specs)
		switch s.cfg.Scheme {
		case config.FixedService:
			return sched.NewFixedService(s.cfg.Timing, groups), nil
		case config.FSBTA:
			if s.cfg.FSBTAStrideDRAM > 0 {
				return sched.NewFSBTAWithStride(s.cfg.Timing, groups, s.cfg.FSBTAStrideDRAM), nil
			}
			return sched.NewFSBTA(s.cfg.Timing, groups), nil
		default:
			return sched.NewTemporalPartitioning(s.cfg.Timing, groups, 96), nil
		}
	default:
		return nil, fmt.Errorf("sim: unsupported scheme %v", s.cfg.Scheme)
	}
}

// buildGroups constructs the slot rotation for FS-family arbiters: each
// protected core alone in its group, all unprotected cores sharing one
// group that appears once per unprotected core. On the paper's eight-core
// setup this yields the 4 x 1/8 victim slots + 4/8 shared SPEC slots.
func buildGroups(specs []CoreSpec) []sched.Group {
	var unprotected sched.Group
	for i, spec := range specs {
		if !spec.Protected {
			unprotected = append(unprotected, domainOf(i))
		}
	}
	var groups []sched.Group
	for i, spec := range specs {
		if spec.Protected {
			groups = append(groups, sched.Group{domainOf(i)})
		} else {
			groups = append(groups, unprotected)
		}
	}
	return groups
}

// ctrlPort adapts the controller as a core port.
type ctrlPort struct{ s *System }

func (p ctrlPort) TryEnqueue(req mem.Request, now uint64) bool {
	return p.s.ctrl.Enqueue(req, now)
}

// dagPort adapts a DAGguise shaper as a core port. A fault-injected
// backpressure burst makes it reject enqueues exactly like a full private
// queue; the rejection is keyed on (domain, cycle) only and is therefore
// secret-independent. Routing violations are stashed on the System for the
// current tick to surface as a protocol SimError.
type dagPort struct {
	s  *System
	sh *shaper.Shaper
}

func (p dagPort) TryEnqueue(req mem.Request, now uint64) bool {
	if p.s.faults != nil && p.s.faults.ShaperRejects(p.sh.Domain(), now) {
		return false
	}
	if p.sh.Full() {
		return false
	}
	ok, err := p.sh.Enqueue(req, now)
	if err != nil && p.s.portErr == nil {
		p.s.portErr = err
	}
	return ok
}

// camoPort adapts a Camouflage shaper as a core port.
type camoPort struct {
	s  *System
	sh *camouflage.Shaper
}

func (p camoPort) TryEnqueue(req mem.Request, now uint64) bool {
	if p.s.faults != nil && p.s.faults.ShaperRejects(p.sh.Domain(), now) {
		return false
	}
	if p.sh.Full() {
		return false
	}
	ok, err := p.sh.Enqueue(req, now)
	if err != nil && p.s.portErr == nil {
		p.s.portErr = err
	}
	return ok
}

func (s *System) buildPort(dom mem.Domain, spec CoreSpec) (cpu.Port, error) {
	if !spec.Protected {
		return ctrlPort{s}, nil
	}
	switch s.cfg.Scheme {
	case config.DAGguise:
		tpl := spec.Defense
		if tpl.Sequences == 0 {
			tpl = rdag.Template{Sequences: 4, Weight: 300, WriteRatio: 0.001, Banks: s.mapper.BankCount()}
		}
		driver, err := rdag.NewPatternDriver(tpl)
		if err != nil {
			return nil, err
		}
		sh := shaper.New(dom, driver, s.mapper, privateQueueDepth, s.alloc, int64(dom)*7919)
		s.lanes[dom].sh = sh
		s.order = append(s.order, dom)
		return dagPort{s, sh}, nil
	case config.Camouflage:
		dist := spec.Distribution
		if len(dist.Intervals) == 0 {
			dist = camouflage.Distribution{Intervals: []uint64{200, 300, 400, 600}}
		}
		sh, err := camouflage.New(dom, dist, s.mapper, privateQueueDepth, s.alloc, int64(dom)*104729)
		if err != nil {
			return nil, err
		}
		s.lanes[dom].camo = sh
		s.order = append(s.order, dom)
		return camoPort{s, sh}, nil
	default:
		// FS-family schemes protect at the scheduler; cores talk to the
		// controller directly. Insecure runs unshaped by definition.
		return ctrlPort{s}, nil
	}
}

// Tick advances the whole machine one cycle. It panics on an invariant
// violation (the legacy unchecked contract); use TickChecked, RunChecked or
// MeasureChecked to receive a structured *SimError instead.
func (s *System) Tick() {
	if err := s.tick(); err != nil {
		panic(err)
	}
}

// TickChecked advances the machine one cycle and reports any invariant
// violation as a *SimError.
func (s *System) TickChecked() error { return s.tick() }

func (s *System) tick() error {
	now := s.now
	// The profiler is a telescoping lap clock: each Lap charges the time
	// since the previous lap (anywhere) to its bucket. Lapping PBHarness
	// first attributes everything since the last tick ended — the caller's
	// loop, checkProgress, bench harness glue — to the harness bucket, so
	// the per-component buckets stay pure and the report explains ~100%
	// of wall time.
	s.prof.Lap(obs.PBHarness)
	s.portErr = nil
	for _, c := range s.cores {
		c.Tick(now)
	}
	s.prof.Lap(obs.PBCPU)
	if s.portErr != nil {
		return s.errf(InvariantProtocol, 0, s.portErr, "request misrouted at core port")
	}
	for _, dom := range s.order {
		ln := &s.lanes[dom]
		var emitted []mem.Request
		if ln.sh != nil {
			emitted = ln.sh.Tick(now)
			s.prof.Lap(obs.PBShaper)
		} else {
			emitted = ln.camo.Tick(now)
			s.prof.Lap(obs.PBCamouflage)
		}
		if s.traceOn {
			for _, req := range emitted {
				s.traces[dom] = append(s.traces[dom], EgressEvent{
					Cycle: now,
					Bank:  s.mapper.FlatBank(s.mapper.Decode(req.Addr)),
					Kind:  req.Kind,
				})
			}
		}
		q := append(ln.egress, emitted...)
		// The high-water mark records peak staging occupancy, so it must be
		// sampled before the drain: post-drain the queue is empty whenever
		// the controller keeps up, and the mark would stay zero on every
		// healthy run.
		if len(q) > ln.hw {
			ln.hw = len(q)
		}
		s.mx.Observe(obs.HistEgressQueue, int(dom), uint64(len(q)))
		// Drain into the controller through an index cursor and compact
		// with copy: the former q = q[1:] loop kept the consumed prefix
		// of the backing array reachable forever.
		n := 0
		stalled := s.faults != nil && s.faults.EgressStalled(dom, now)
		if stalled && len(q) > 0 {
			s.tr.Emit(obs.Event{Cycle: now, Comp: obs.CompSystem, Kind: obs.EvEgressStall, Index: int32(dom), Domain: int32(dom)})
		}
		if !stalled {
			for n < len(q) && s.ctrl.Enqueue(q[n], now) {
				n++
			}
		}
		if n > 0 {
			rest := copy(q, q[n:])
			q = q[:rest]
		}
		ln.egress = q
		if s.wd.EgressHighWater > 0 && len(q) > s.wd.EgressHighWater {
			return s.errf(InvariantLivelock, dom, nil,
				"egress queue depth %d exceeds high-water mark %d", len(q), s.wd.EgressHighWater)
		}
		s.prof.Lap(obs.PBEgress)
	}
	// ctrl.Tick laps its own interior (sched picks -> PBSched, device
	// service -> PBDRAM, bookkeeping/drain -> PBMemctrl) on the shared
	// profiler, telescoping seamlessly with the laps here.
	resps := s.ctrl.Tick(now)
	// Fault layer on the controller→core boundary: withhold responses
	// covered by a delay/drop window and redeliver the ones that are due.
	// Both decisions are keyed on (domain, cycle) only.
	if s.faults != nil {
		kept := resps[:0]
		for _, r := range resps {
			if at, held := s.faults.DeferResponse(r.Domain, now); held {
				s.deferred = append(s.deferred, deferredResp{at: at, resp: r})
			} else {
				kept = append(kept, r)
			}
		}
		resps = kept
	}
	if len(s.deferred) > 0 {
		rest := s.deferred[:0]
		for _, d := range s.deferred {
			if d.at <= now {
				resps = append(resps, d.resp)
			} else {
				rest = append(rest, d)
			}
		}
		s.deferred = rest
	}
	for _, resp := range resps {
		// Audit taps observe the controller's response stream — the
		// externally visible completion timing, fake responses included —
		// before any shaper filters it. Recording the inter-completion gap
		// is measurement-only; the tap is never read back during a tick.
		if tap, ok := s.auditTaps[resp.Domain]; ok {
			tap.Record(now, now-s.auditLast[resp.Domain])
			s.auditLast[resp.Domain] = now
		}
		if err := s.route(resp, now); err != nil {
			return s.errf(InvariantProtocol, resp.Domain, err, "response routing failed")
		}
	}
	s.prof.Lap(obs.PBRoute)
	s.now++
	return s.checkProgress(len(resps) > 0)
}

// checkProgress enforces the deadlock invariant: with pending work, some
// instruction must retire or some response must be delivered within the
// stall budget.
func (s *System) checkProgress(delivered bool) error {
	if s.wd.StallBudget == 0 {
		return nil
	}
	var retired uint64
	for _, c := range s.cores {
		retired += c.Stats().Instructions
	}
	if delivered || retired != s.lastRetired {
		s.lastProgress = s.now
		s.lastRetired = retired
		return nil
	}
	if s.now-s.lastProgress <= s.wd.StallBudget {
		return nil
	}
	if s.idle() {
		// Nothing pending anywhere (e.g. all finite traces retired):
		// quiescence, not deadlock.
		s.lastProgress = s.now
		return nil
	}
	detail := fmt.Sprintf("no instruction retired and no response delivered for %d cycles", s.now-s.lastProgress)
	if at, ok := s.ctrl.NextCompletion(); ok {
		detail += fmt.Sprintf("; earliest in-flight completion at cycle %d", at)
	}
	return s.errf(InvariantDeadlock, 0, nil, "%s", detail)
}

// idle reports whether the machine has genuinely nothing left to do.
func (s *System) idle() bool {
	if !s.ctrl.Idle() || len(s.deferred) > 0 {
		return false
	}
	for i := range s.lanes {
		if len(s.lanes[i].egress) > 0 {
			return false
		}
	}
	for _, c := range s.cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

func (s *System) route(resp mem.Response, now uint64) error {
	ln := &s.lanes[resp.Domain]
	if ln.sh != nil {
		deliver, err := ln.sh.OnResponse(resp, now)
		if err != nil {
			return err
		}
		if deliver {
			return s.coreFor(resp.Domain).OnResponse(resp, now)
		}
		return nil
	}
	if ln.camo != nil {
		if ln.camo.OnResponse(resp, now) {
			return s.coreFor(resp.Domain).OnResponse(resp, now)
		}
		return nil
	}
	return s.coreFor(resp.Domain).OnResponse(resp, now)
}

func (s *System) coreFor(d mem.Domain) *cpu.Core {
	return s.cores[int(d)-1]
}

// Run advances the machine by the given number of cycles, panicking on an
// invariant violation (the legacy unchecked contract).
func (s *System) Run(cycles uint64) {
	end := s.now + cycles
	for s.now < end {
		s.Tick()
	}
}

// RunChecked advances the machine by the given number of cycles with the
// forward-progress watchdog armed, returning a structured *SimError the
// moment an invariant fails (instead of panicking or spinning forever). If
// no watchdog was configured with SetWatchdog, DefaultWatchdog is used.
func (s *System) RunChecked(cycles uint64) error {
	restore := s.armWatchdog()
	defer restore()
	end := s.now + cycles
	for s.now < end {
		if err := s.tick(); err != nil {
			return err
		}
	}
	return nil
}

// armWatchdog installs the default watchdog if none is configured and
// returns a func restoring the previous state.
func (s *System) armWatchdog() func() {
	prev := s.wd
	if s.wd == (Watchdog{}) {
		s.wd = DefaultWatchdog()
		s.lastProgress = s.now
	}
	return func() { s.wd = prev }
}

// SetWatchdog configures the forward-progress invariants for the Checked
// APIs. Fields left zero disable the corresponding check.
func (s *System) SetWatchdog(w Watchdog) {
	s.wd = w
	s.lastProgress = s.now
	var retired uint64
	for _, c := range s.cores {
		retired += c.Stats().Instructions
	}
	s.lastRetired = retired
}

// AttachFaults wires a deterministic fault schedule into the machine: DRAM
// stall windows are registered with the device model, and the remaining
// fault kinds are consulted cycle by cycle during tick. Attach faults once,
// before running; the same schedule attached to two systems produces
// bit-identical fault sequences.
func (s *System) AttachFaults(sched fault.Schedule) error {
	in, err := fault.NewInjector(sched)
	if err != nil {
		return err
	}
	s.faults = in
	for _, w := range in.StallWindows() {
		s.dev.InjectStallWindow(w.Start, w.End())
	}
	return nil
}

// EnableEgressTrace starts recording every shaper emission as an
// EgressEvent per protected domain. Enable it before running; tracing is
// the observation side of the non-interference-under-faults argument.
func (s *System) EnableEgressTrace() {
	s.traceOn = true
	if s.traces == nil {
		s.traces = make(map[mem.Domain][]EgressEvent)
	}
}

// EgressTrace returns the recorded shaped-egress timing trace of the
// domain (nil when tracing is off or the domain is unshaped).
func (s *System) EgressTrace(d mem.Domain) []EgressEvent { return s.traces[d] }

// NumDomains returns the number of observability domain slots this system
// needs: one per core plus the system-wide slot 0.
func (s *System) NumDomains() int { return len(s.cores) + 1 }

// Observe attaches an observability registry and tracer (either may be
// nil) and threads them through every component: the memory controller and
// DRAM device, each shaper, each core and (when the scheme has one) the
// secure arbiter. Collection is measurement-only — no component's timing
// decision ever reads back from the registry or tracer — so the simulated
// machine behaves bit-identically with observability on or off.
func (s *System) Observe(mx *obs.Registry, tr *obs.Tracer) {
	s.mx = mx
	s.tr = tr
	s.ctrl.Observe(mx, tr)
	for _, dom := range s.order {
		if ln := &s.lanes[dom]; ln.sh != nil {
			ln.sh.Observe(mx, tr)
		} else {
			ln.camo.Observe(mx, tr)
		}
	}
	for _, c := range s.cores {
		c.Observe(mx)
	}
	if so, ok := s.policy.(interface{ Observe(*obs.Registry) }); ok {
		so.Observe(mx)
	}
}

// Profile attaches a cycle-attribution profiler (nil = off) to the tick
// loop and the memory controller. Like Observe it is measurement only:
// laps read the wall clock and write profiler-private buckets, nothing
// in the simulated machine consults them, so shaped egress is
// bit-identical with profiling on or off (pinned by the full-on
// non-interference test).
func (s *System) Profile(p *obs.CycleProfile) {
	s.prof = p
	s.ctrl.Profile(p)
}

// TraceSpans attaches a span recorder (nil = off). The simulator itself
// opens spans only at measurement granularity (Measure's warmup/window
// phases); callers like the campaign runner layer job/chunk spans on
// the same recorder, and SaveState captures spans open at checkpoint
// time so they reopen identically after RestoreState.
func (s *System) TraceSpans(sp *obs.Spans) { s.spans = sp }

// Spans returns the attached span recorder (nil when disabled).
func (s *System) Spans() *obs.Spans { return s.spans }

// AuditResponses attaches a leakage-audit tap to the domain: every
// controller response for the domain is recorded as (completion cycle,
// gap since the domain's previous completion) — the response-timing stream
// an attacker on the shared channel can observe. The tap sees the stream
// before shaper filtering, so fake responses are included; under DAGguise
// the recorded stream is secret-independent by construction. A nil tap
// detaches the domain. Measurement only: TestAuditTapNonInterference pins
// the shaped egress bit-identical with auditing on and off.
func (s *System) AuditResponses(d mem.Domain, t *audit.Tap) {
	if s.auditTaps == nil {
		s.auditTaps = make(map[mem.Domain]*audit.Tap)
		s.auditLast = make(map[mem.Domain]uint64)
	}
	if t == nil {
		delete(s.auditTaps, d)
		return
	}
	s.auditTaps[d] = t
}

// Now returns the current cycle.
func (s *System) Now() uint64 { return s.now }

// Controller exposes the memory controller (for attack experiments and
// detailed inspection).
func (s *System) Controller() *memctrl.Controller { return s.ctrl }

// Core returns core i.
func (s *System) Core(i int) *cpu.Core { return s.cores[i] }

// Shaper returns the DAGguise shaper of the domain, if any.
func (s *System) Shaper(d mem.Domain) (*shaper.Shaper, bool) {
	if int(d) >= len(s.lanes) || s.lanes[d].sh == nil {
		return nil, false
	}
	return s.lanes[d].sh, true
}

// CoreResult is the per-core outcome of a measurement window.
type CoreResult struct {
	Name          string
	Domain        mem.Domain
	IPC           float64
	Instructions  uint64
	MemReads      uint64
	Writebacks    uint64
	BandwidthGBps float64
	// ShaperFakes / ShaperForwarded are zero for unshaped cores.
	ShaperFakes     uint64
	ShaperForwarded uint64
}

// Result is the outcome of a measurement window.
type Result struct {
	Cycles        uint64
	Cores         []CoreResult
	TotalGBps     float64
	RowHits       uint64
	RowMisses     uint64
	RowConflicts  uint64
	QueueMaxDepth int
	// EgressDepths holds each shaped domain's egress queue high-water
	// mark since the system started; EgressMaxDepth is their maximum.
	// The watchdog's livelock invariant bounds these online.
	EgressDepths   map[mem.Domain]int
	EgressMaxDepth int
	// Metrics is the observability snapshot delta over the measurement
	// window (nil unless a registry was attached with Observe).
	Metrics *obs.Snapshot
}

type snapshot struct {
	inst  []uint64
	reads []uint64
	wbs   []uint64
	bytes []uint64
	fakes []uint64
	fwd   []uint64
	total uint64
	cycle uint64
}

func (s *System) snap() snapshot {
	sn := snapshot{cycle: s.now, total: s.ctrl.Stats().BytesServed}
	for i, c := range s.cores {
		st := c.Stats()
		sn.inst = append(sn.inst, st.Instructions)
		sn.reads = append(sn.reads, st.MemReads)
		sn.wbs = append(sn.wbs, st.Writebacks)
		sn.bytes = append(sn.bytes, s.ctrl.BytesForDomain(domainOf(i)))
		var fakes, fwd uint64
		if ln := &s.lanes[domainOf(i)]; ln.sh != nil {
			fakes, fwd = ln.sh.Stats().Fakes, ln.sh.Stats().Forwarded
		} else if ln.camo != nil {
			fakes, fwd = ln.camo.Stats().Fakes, ln.camo.Stats().Forwarded
		}
		sn.fakes = append(sn.fakes, fakes)
		sn.fwd = append(sn.fwd, fwd)
	}
	return sn
}

// Measure runs warmup cycles (discarded) then a measurement window and
// returns per-core IPC and bandwidth over that window. It panics on an
// invariant violation; use MeasureChecked for the structured-error form.
func (s *System) Measure(warmup, window uint64) Result {
	res, err := s.measure(warmup, window, false)
	if err != nil {
		panic(err)
	}
	return res
}

// MeasureChecked is Measure with the forward-progress watchdog armed: it
// returns a *SimError (and the zero Result) the moment an invariant fails
// during warmup or measurement.
func (s *System) MeasureChecked(warmup, window uint64) (Result, error) {
	return s.measure(warmup, window, true)
}

func (s *System) measure(warmup, window uint64, checked bool) (Result, error) {
	run := func(cycles uint64) error {
		if checked {
			return s.RunChecked(cycles)
		}
		end := s.now + cycles
		for s.now < end {
			if err := s.tick(); err != nil {
				return err
			}
		}
		return nil
	}
	return s.measureWith(run, warmup, window)
}

// measureWith is the measurement core, parameterised over the run loop so
// the context-aware form shares the exact accounting.
func (s *System) measureWith(run func(uint64) error, warmup, window uint64) (Result, error) {
	root := s.spans.Begin("measure", obs.CompSystem, 0, 0, 0, s.now)
	warm := s.spans.Begin("warmup", obs.CompSystem, 0, 0, root, s.now)
	if err := run(warmup); err != nil {
		return Result{}, err
	}
	s.spans.End(warm, s.now)
	before := s.snap()
	mxBefore := s.mx.Snapshot()
	win := s.spans.Begin("window", obs.CompSystem, 0, 0, root, s.now)
	if err := run(window); err != nil {
		return Result{}, err
	}
	s.spans.End(win, s.now)
	s.spans.End(root, s.now)
	after := s.snap()

	cycles := after.cycle - before.cycle
	res := Result{Cycles: cycles}
	toGBps := func(bytes uint64) float64 {
		return float64(bytes) * CPUFrequencyHz / float64(cycles) / 1e9
	}
	for i := range s.cores {
		res.Cores = append(res.Cores, CoreResult{
			Name:            s.specs[i].Name,
			Domain:          domainOf(i),
			IPC:             float64(after.inst[i]-before.inst[i]) / float64(cycles),
			Instructions:    after.inst[i] - before.inst[i],
			MemReads:        after.reads[i] - before.reads[i],
			Writebacks:      after.wbs[i] - before.wbs[i],
			BandwidthGBps:   toGBps(after.bytes[i] - before.bytes[i]),
			ShaperFakes:     after.fakes[i] - before.fakes[i],
			ShaperForwarded: after.fwd[i] - before.fwd[i],
		})
	}
	res.TotalGBps = toGBps(after.total - before.total)
	if s.mx != nil {
		res.Metrics = s.mx.Snapshot().Sub(mxBefore)
	}
	res.RowHits, res.RowMisses, res.RowConflicts, _ = s.dev.Stats()
	res.QueueMaxDepth = s.ctrl.Stats().MaxQueueLen
	if len(s.order) > 0 {
		res.EgressDepths = make(map[mem.Domain]int, len(s.order))
		for _, d := range s.order {
			hw := s.lanes[d].hw
			res.EgressDepths[d] = hw
			if hw > res.EgressMaxDepth {
				res.EgressMaxDepth = hw
			}
		}
	}
	return res, nil
}
