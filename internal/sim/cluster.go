package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"

	"dagguise/internal/audit"
	"dagguise/internal/config"
	"dagguise/internal/dram"
	"dagguise/internal/fault"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/rdag"
	"dagguise/internal/rng"
	"dagguise/internal/shaper"
)

// clusterMaxOutstanding bounds each tenant's in-flight requests, standing in
// for the MSHR limit of a real core's memory interface.
const clusterMaxOutstanding = 4

// Cluster is the datacenter-scale machine of the fleet fabric: N memory
// channels, each with its own controller and DRAM device, shared by up to
// hundreds of concurrent security domains. Tenant requests hash across the
// channels via mem.RouteChannel; under DAGguise every protected tenant gets
// one request shaper per channel, driven by that channel's defense rDAG.
//
// A Cluster may own only a slice [ChanLo, ChanHi) of the configured
// channels — the unit of fleet sharding. Requests the router sends outside
// the slice are counted as remote and complete immediately (they are
// simulated by the shard that owns that slice), which keeps every shard a
// pure function of its descriptor.
//
// The machine is deterministic end to end: tenants are open-loop generators
// over rng.Derive substreams, all per-entity iteration is in index order,
// and SaveState/RestoreState round-trip the complete mutable state.
type Cluster struct {
	cfg    config.MultiChannelConfig
	chanLo int
	chanHi int
	seed   int64
	secret int

	now     uint64
	nextID  uint64
	tenants []*clusterTenant
	chans   []*channelUnit

	// The tenant calendar. ready holds the tenants that can generate (no
	// pending request, below the outstanding cap), keyed on (nextAt,
	// index); waiting lists the tenants holding a pending request, in
	// index order, because their stall count advances every cycle. The
	// rest sit at the cap until deliver files them back. batch is the
	// current cycle's tenants, reused. Derived state: RestoreState
	// rebuilds it from the tenants.
	ready   tenantHeap
	waiting []int32
	batch   []int32

	// faults answers per-cycle fault queries (nil = clean run). Every
	// query is keyed on (cycle, domain) only, so twin runs differing only
	// in secret experience bit-identical fault sequences — the property
	// that extends the non-interference argument to the faulty machine.
	faults        *fault.Injector
	faultDeferred uint64
}

// clusterTenant is one open-loop security domain. Protected tenants carry
// the secret in their traffic intensity: the generated address stream and
// the rng draw sequence are secret-independent by construction, only the
// inter-request gap is modulated by secret bits, so any secret-dependent
// difference an unprotected tenant observes is a genuine timing channel.
type clusterTenant struct {
	index     int
	dom       mem.Domain
	protected bool
	gapBase   uint64
	rng       *rng.Rand

	nextAt      uint64
	generated   uint64
	outstanding int
	pending     mem.Request // valid while hasPending
	hasPending  bool

	issued    uint64
	completed uint64
	remote    uint64
	stalls    uint64

	tap      *audit.Tap // response-timing tap; unprotected tenants only
	lastDone uint64
}

// channelUnit is one memory channel: a single-channel address mapper, a
// DRAM device, a controller, the per-protected-tenant shapers (DAGguise)
// and a FIFO staging the shaper egress toward the transaction queue.
type channelUnit struct {
	index   int
	mapper  *mem.Mapper
	dev     *dram.Device
	ctrl    *memctrl.Controller
	shapers []*shaper.Shaper // indexed by protected-tenant index; nil off DAGguise
	egress  []mem.Request
	// deferred holds responses withheld by RespDelay/RespDrop faults,
	// redelivered in insertion order once their cycle arrives.
	deferred []DeferredResponse
	// shaperWake is the first cycle at which some shaper may emit; no
	// shaper ticks before it. A response reaching a shaper lowers it and
	// RestoreState clears it. Derived state, never saved.
	shaperWake uint64
}

// NewCluster builds a cluster over the channel slice [chanLo, chanHi) of
// the configuration. seed fixes every derived tenant and shaper stream;
// secret is the value the protected tenants' traffic intensity encodes
// (the twin-run observable of the non-interference audit).
func NewCluster(cfg config.MultiChannelConfig, chanLo, chanHi int, seed int64, secret int) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if chanLo < 0 || chanHi > cfg.Channels || chanLo >= chanHi {
		return nil, fmt.Errorf("sim: channel slice [%d, %d) outside [0, %d)", chanLo, chanHi, cfg.Channels)
	}
	switch cfg.Scheme {
	case config.Insecure, config.DAGguise:
	default:
		return nil, fmt.Errorf("sim: cluster supports the insecure and dagguise schemes, got %s", cfg.Scheme)
	}
	c := &Cluster{cfg: cfg, chanLo: chanLo, chanHi: chanHi, seed: seed, secret: secret}
	alloc := func() uint64 {
		c.nextID++
		return c.nextID
	}
	for i := 0; i < cfg.Domains; i++ {
		t := &clusterTenant{
			index:     i,
			dom:       mem.Domain(i + 1),
			protected: i < cfg.Protected,
			rng:       rng.New(rng.Derive(seed, fmt.Sprintf("tenant-%05d", i))),
		}
		if t.protected {
			// Victims alternate hot bursts and idle phases; the phase
			// pattern is the secret (see gap()).
			t.gapBase = 256
		} else {
			t.gapBase = 48 + uint64(i%5)*16
			t.tap = audit.NewTap()
		}
		c.tenants = append(c.tenants, t)
		c.file(t)
	}
	for ch := chanLo; ch < chanHi; ch++ {
		mapper, err := mem.NewMapper(cfg.Geometry)
		if err != nil {
			return nil, err
		}
		dev := dram.New(cfg.Timing, mapper, cfg.ClosedRow())
		// The capacity must cover the per-domain partitions in full, or a
		// checkpoint cut at high occupancy could fail queue validation on
		// restore.
		ctrl := memctrl.New(dev, mapper, memctrl.FRFCFS{}, cfg.QueueDepth*cfg.Domains)
		u := &channelUnit{index: ch, mapper: mapper, dev: dev, ctrl: ctrl}
		if cfg.Scheme == config.DAGguise {
			ctrl.PartitionQueue(cfg.QueueDepth)
			u.shapers = make([]*shaper.Shaper, cfg.Protected)
			for i := 0; i < cfg.Protected; i++ {
				drv, err := rdag.NewPatternDriver(cfg.ChannelDefenses[ch])
				if err != nil {
					return nil, err
				}
				sseed := rng.Derive(seed, fmt.Sprintf("shaper-ch%04d-dom%05d", ch, i+1))
				u.shapers[i] = shaper.New(mem.Domain(i+1), drv, mapper, cfg.ShaperDepth, alloc, sseed)
			}
		}
		c.chans = append(c.chans, u)
	}
	return c, nil
}

// Config returns the configuration the cluster was built from.
func (c *Cluster) Config() config.MultiChannelConfig { return c.cfg }

// Slice returns the channel slice [lo, hi) this cluster owns.
func (c *Cluster) Slice() (lo, hi int) { return c.chanLo, c.chanHi }

// Now returns the current cycle.
func (c *Cluster) Now() uint64 { return c.now }

// AttachFaults wires a deterministic fault schedule into the cluster:
// DRAM stall windows are registered with every channel's device model,
// and the remaining kinds are consulted cycle by cycle during tick.
// Attach once, before running (a checkpoint restore replaces the device
// windows with the saved set, so attach-then-restore is also safe). The
// same schedule attached to twin clusters produces bit-identical fault
// sequences regardless of their secrets.
func (c *Cluster) AttachFaults(sched fault.Schedule) error {
	in, err := fault.NewInjector(sched)
	if err != nil {
		return err
	}
	c.faults = in
	for _, u := range c.chans {
		for _, w := range in.StallWindows() {
			u.dev.InjectStallWindow(w.Start, w.End())
		}
	}
	return nil
}

// gap returns tenant t's next inter-request gap. Protected tenants walk the
// secret's bits: a set bit stretches the gap by 8x the base (an idle
// phase), a clear bit keeps the burst pace. The jitter draw is taken
// unconditionally so the rng position — and with it the secret-independent
// address stream — never depends on the secret.
func (c *Cluster) gap(t *clusterTenant) uint64 {
	jitter := uint64(t.rng.Int63n(32))
	if !t.protected {
		return t.gapBase + jitter
	}
	bit := (uint64(c.secret) >> (t.generated % 16)) & 1
	return t.gapBase/8 + jitter + bit*t.gapBase*8
}

// generate draws tenant t's next request: a uniformly random line address
// in the configured capacity. Writes are deterministic (every 16th
// request), so the kind mix costs no rng draws.
func (c *Cluster) generate(t *clusterTenant) mem.Request {
	geo := c.cfg.Geometry
	capBytes := uint64(geo.CapacityGiB)
	if capBytes == 0 {
		capBytes = 4
	}
	lines := (capBytes << 30) / uint64(geo.LineBytes)
	addr := (uint64(t.rng.Int63()) % lines) * uint64(geo.LineBytes)
	kind := mem.Read
	if t.generated%16 == 15 {
		kind = mem.Write
	}
	t.generated++
	c.nextID++
	return mem.Request{ID: c.nextID, Addr: addr, Kind: kind, Domain: t.dom, Issue: c.now}
}

// issue routes one request. It reports whether the request left the tenant
// (accepted locally, or remote and therefore out of this shard's hands).
func (c *Cluster) issue(t *clusterTenant, req mem.Request) bool {
	ch := mem.RouteChannel(req.Domain, req.Addr, c.cfg.Channels)
	if ch < c.chanLo || ch >= c.chanHi {
		t.remote++
		return true
	}
	u := c.chans[ch-c.chanLo]
	if t.protected && c.cfg.Scheme == config.DAGguise {
		if c.faults != nil && c.faults.ShaperRejects(req.Domain, c.now) {
			// Backpressure burst: the shaper refuses the enqueue and the
			// core stalls. The shaped egress stream is unaffected — the
			// shaper keeps following its defense rDAG.
			return false
		}
		ok, err := u.shapers[t.index].Enqueue(req, c.now)
		if err != nil {
			// Routing is exact by construction; a mismatch is a bug.
			panic(err)
		}
		if !ok {
			return false
		}
	} else if !u.ctrl.Enqueue(req, c.now) {
		return false
	}
	t.outstanding++
	t.issued++
	return true
}

// tickTenants advances the tenants that can act this cycle, in index
// order: those holding a pending request retry it, and those whose
// nextAt has come generate one. Every other tenant would do nothing, so
// IDs, queue order and fault queries match a walk over all tenants.
func (c *Cluster) tickTenants() {
	batch := c.batch[:0]
	for len(c.ready) > 0 && c.ready[0].at <= c.now {
		batch = append(batch, c.ready.pop().index)
	}
	if len(batch) == 0 && len(c.waiting) == 0 {
		return
	}
	if batch = append(batch, c.waiting...); len(batch) > 1 {
		slices.Sort(batch)
	}
	c.waiting = c.waiting[:0]
	for _, i := range batch {
		t := c.tenants[i]
		if t.hasPending {
			if c.issue(t, t.pending) {
				t.hasPending = false
			} else {
				t.stalls++
			}
		} else {
			req := c.generate(t)
			t.nextAt = c.now + c.gap(t)
			if !c.issue(t, req) {
				t.pending, t.hasPending = req, true
				t.stalls++
			}
		}
		c.file(t)
	}
	c.batch = batch
}

// file enters tenant t in the calendar by its state: waiting with a
// pending request, ready below the outstanding cap, otherwise nowhere
// until a delivery brings it below the cap.
func (c *Cluster) file(t *clusterTenant) {
	switch {
	case t.hasPending:
		c.waiting = append(c.waiting, int32(t.index))
	case t.outstanding < clusterMaxOutstanding:
		c.ready.push(tenantEvent{at: t.nextAt, index: int32(t.index)})
	}
}

// deliver hands a completed response back to its tenant, recording the
// completion gap on tapped (unprotected) tenants — the attacker-observable
// stream the non-interference audit digests.
func (c *Cluster) deliver(resp mem.Response) {
	idx := int(resp.Domain) - 1
	if idx < 0 || idx >= len(c.tenants) {
		return
	}
	t := c.tenants[idx]
	if t.outstanding > 0 {
		t.outstanding--
		if t.outstanding == clusterMaxOutstanding-1 && !t.hasPending {
			c.file(t) // back below the cap
		}
	}
	t.completed++
	if t.tap != nil {
		t.tap.Record(c.now, c.now-t.lastDone)
		t.lastDone = c.now
	}
}

// tickChannel advances one channel: deferred responses whose redelivery
// cycle arrived dispatch first, shaper emissions stage into the egress
// FIFO, the FIFO drains into the transaction queue in order (unless an
// egress-stall fault blocks its head), the controller issues and
// completes, and responses route back through the emitting shaper (which
// swallows fakes) or directly to the tenant — unless a RespDelay/RespDrop
// fault withholds them into the deferred queue.
func (c *Cluster) tickChannel(u *channelUnit) {
	if len(u.deferred) > 0 {
		kept := u.deferred[:0]
		for _, d := range u.deferred {
			if d.Until <= c.now {
				c.dispatch(u, d.Resp)
			} else {
				kept = append(kept, d)
			}
		}
		u.deferred = kept
	}
	if c.now >= u.shaperWake {
		wake := memctrl.Never
		for _, sh := range u.shapers {
			u.egress = append(u.egress, sh.Tick(c.now)...)
			wake = min(wake, sh.NextEmission())
		}
		u.shaperWake = wake
	}
	for len(u.egress) > 0 {
		if c.faults != nil && c.faults.EgressStalled(u.egress[0].Domain, c.now) {
			break
		}
		if !u.ctrl.Enqueue(u.egress[0], c.now) {
			break
		}
		u.egress = u.egress[1:]
	}
	for _, resp := range u.ctrl.Tick(c.now) {
		if c.faults != nil {
			if until, ok := c.faults.DeferResponse(resp.Domain, c.now); ok {
				u.deferred = append(u.deferred, DeferredResponse{Until: until, Resp: resp})
				c.faultDeferred++
				continue
			}
		}
		c.dispatch(u, resp)
	}
}

// dispatch routes one completed response to its consumer: the emitting
// shaper for protected domains under DAGguise (late redeliveries
// included), the tenant directly otherwise.
func (c *Cluster) dispatch(u *channelUnit, resp mem.Response) {
	idx := int(resp.Domain) - 1
	if c.cfg.Scheme == config.DAGguise && idx >= 0 && idx < c.cfg.Protected {
		sh := u.shapers[idx]
		real, err := sh.OnResponse(resp, c.now)
		if err != nil {
			panic(err)
		}
		u.shaperWake = min(u.shaperWake, sh.NextEmission())
		if real {
			c.deliver(resp)
		}
		return
	}
	c.deliver(resp)
}

// Tick advances the cluster one cycle.
func (c *Cluster) Tick() {
	c.tickTenants()
	for _, u := range c.chans {
		c.tickChannel(u)
	}
	c.now++
}

// Run advances the cluster by the given number of cycles.
func (c *Cluster) Run(cycles uint64) {
	for end := c.now + cycles; c.now < end; {
		c.Tick()
	}
}

// AuditDigest hashes the attacker-observable record: every unprotected
// tenant's response-timing samples, walked in tenant index order. Two twin
// runs differing only in the protected tenants' secret must produce equal
// digests under a sound defense; any difference is interference.
func (c *Cluster) AuditDigest() string {
	h := sha256.New()
	var buf [8]byte
	for _, t := range c.tenants {
		if t.tap == nil {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(t.index))
		h.Write(buf[:])
		samples := t.tap.Samples()
		binary.LittleEndian.PutUint64(buf[:], uint64(len(samples)))
		h.Write(buf[:])
		for _, s := range samples {
			binary.LittleEndian.PutUint64(buf[:], s.Cycle)
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], s.Value)
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ClusterCounters aggregates the cluster's deterministic counters; every
// field is a pure function of the (config, slice, seed, secret, cycles)
// tuple, so they are safe to fold into byte-stable fleet reports.
type ClusterCounters struct {
	Cycles          uint64   `json:"cycles"`
	Tenants         int      `json:"tenants"`
	Issued          uint64   `json:"issued"`
	Completed       uint64   `json:"completed"`
	Remote          uint64   `json:"remote"`
	Stalls          uint64   `json:"stalls"`
	ShaperForwarded uint64   `json:"shaper_forwarded"`
	ShaperFakes     uint64   `json:"shaper_fakes"`
	TapSamples      uint64   `json:"tap_samples"`
	ChannelIssued   []uint64 `json:"channel_issued"`
	// Fault-campaign counters (zero — and absent from the JSON — on
	// clean runs, so clean reports are byte-identical to older ones).
	FaultDeferred  uint64 `json:"fault_deferred,omitempty"`
	FaultStallHits uint64 `json:"fault_stall_hits,omitempty"`
}

// Counters returns the cluster's aggregate counters.
func (c *Cluster) Counters() ClusterCounters {
	out := ClusterCounters{Cycles: c.now, Tenants: len(c.tenants)}
	for _, t := range c.tenants {
		out.Issued += t.issued
		out.Completed += t.completed
		out.Remote += t.remote
		out.Stalls += t.stalls
		if t.tap != nil {
			out.TapSamples += uint64(t.tap.Len())
		}
	}
	out.FaultDeferred = c.faultDeferred
	for _, u := range c.chans {
		out.ChannelIssued = append(out.ChannelIssued, u.ctrl.Stats().Issued)
		out.FaultStallHits += u.dev.InjectedStallHits()
		for _, sh := range u.shapers {
			st := sh.Stats()
			out.ShaperForwarded += st.Forwarded
			out.ShaperFakes += st.Fakes
		}
	}
	return out
}

// tenantEvent is a ready tenant's calendar entry: the cycle it generates
// its next request.
type tenantEvent struct {
	at    uint64
	index int32
}

func (a tenantEvent) before(b tenantEvent) bool {
	return a.at < b.at || (a.at == b.at && a.index < b.index)
}

// tenantHeap is a min-heap of calendar entries on (at, index).
type tenantHeap []tenantEvent

func (h *tenantHeap) push(x tenantEvent) {
	*h = append(*h, x)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !q[j].before(q[i]) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// pop removes the earliest entry. The hole left at the root walks down
// along the earlier children to a leaf, and the last entry sifts up from
// there: one comparison per level on the way down, where a plain sift
// needs two, and the last entry rarely climbs far.
func (h *tenantHeap) pop() tenantEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && q[j+1].before(q[j]) {
			j++
		}
		q[i] = q[j]
		i = j
	}
	for i > 0 {
		p := (i - 1) / 2
		if !last.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = last
	*h = q[:n]
	return top
}
