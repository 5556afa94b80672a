package sim

import (
	"fmt"

	"dagguise/internal/audit"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/rng"
	"dagguise/internal/shaper"
)

// ClusterTenantState is one tenant's mutable state. Every field is scalar
// or an ordered slice, so the JSON form is byte-deterministic.
type ClusterTenantState struct {
	Index       int            `json:"index"`
	Rand        rng.State      `json:"rand"`
	NextAt      uint64         `json:"next_at"`
	Generated   uint64         `json:"generated"`
	Outstanding int            `json:"outstanding"`
	Pending     *mem.Request   `json:"pending,omitempty"`
	Issued      uint64         `json:"issued"`
	Completed   uint64         `json:"completed"`
	Remote      uint64         `json:"remote"`
	Stalls      uint64         `json:"stalls"`
	LastDone    uint64         `json:"last_done"`
	Tap         []audit.Sample `json:"tap,omitempty"`
}

// DeferredResponse is one response withheld by a RespDelay/RespDrop
// fault, redelivered at cycle Until.
type DeferredResponse struct {
	Until uint64       `json:"until"`
	Resp  mem.Response `json:"resp"`
}

// ClusterChannelState is one channel's mutable state: the DRAM device, the
// controller, the staged shaper egress, fault-deferred responses and the
// per-protected-tenant shapers in tenant order.
type ClusterChannelState struct {
	Index      int                     `json:"index"`
	Device     dram.DeviceState        `json:"device"`
	Controller memctrl.ControllerState `json:"controller"`
	Egress     []mem.Request           `json:"egress,omitempty"`
	Deferred   []DeferredResponse      `json:"deferred,omitempty"`
	Shapers    []shaper.State          `json:"shapers,omitempty"`
}

// ClusterState is the complete serializable state of a Cluster. Restoring
// it into a freshly built cluster with the same (config, slice, seed,
// secret) tuple continues the identical simulation.
type ClusterState struct {
	Scheme  string                `json:"scheme"`
	ChanLo  int                   `json:"chan_lo"`
	ChanHi  int                   `json:"chan_hi"`
	Seed    int64                 `json:"seed"`
	Secret  int                   `json:"secret"`
	Now     uint64                `json:"now"`
	NextID  uint64                `json:"next_id"`
	Tenants []ClusterTenantState  `json:"tenants"`
	Chans   []ClusterChannelState `json:"chans"`
	// FaultDeferred counts responses withheld by injected faults (absent
	// on clean runs, keeping their state encoding unchanged).
	FaultDeferred uint64 `json:"fault_deferred,omitempty"`
}

// SaveState captures the cluster's full mutable state.
func (c *Cluster) SaveState() (*ClusterState, error) {
	st := &ClusterState{
		Scheme: c.cfg.Scheme.String(),
		ChanLo: c.chanLo, ChanHi: c.chanHi,
		Seed: c.seed, Secret: c.secret,
		Now: c.now, NextID: c.nextID,
		FaultDeferred: c.faultDeferred,
	}
	for _, t := range c.tenants {
		ts := ClusterTenantState{
			Index:       t.index,
			Rand:        t.rng.State(),
			NextAt:      t.nextAt,
			Generated:   t.generated,
			Outstanding: t.outstanding,
			Issued:      t.issued,
			Completed:   t.completed,
			Remote:      t.remote,
			Stalls:      t.stalls,
			LastDone:    t.lastDone,
		}
		if t.hasPending {
			req := t.pending
			ts.Pending = &req
		}
		if t.tap != nil {
			ts.Tap = t.tap.SaveState()
		}
		st.Tenants = append(st.Tenants, ts)
	}
	for _, u := range c.chans {
		cs := ClusterChannelState{
			Index:      u.index,
			Device:     u.dev.SaveState(),
			Controller: u.ctrl.SaveState(),
			Egress:     append([]mem.Request(nil), u.egress...),
			Deferred:   append([]DeferredResponse(nil), u.deferred...),
		}
		for _, sh := range u.shapers {
			ss, err := sh.SaveState()
			if err != nil {
				return nil, err
			}
			cs.Shapers = append(cs.Shapers, ss)
		}
		st.Chans = append(st.Chans, cs)
	}
	return st, nil
}

// RestoreState overwrites the cluster's mutable state. The cluster must
// have been built with the same configuration, channel slice, seed and
// secret as the one that produced the state.
func (c *Cluster) RestoreState(st *ClusterState) error {
	if st == nil {
		return fmt.Errorf("sim: nil cluster state")
	}
	if st.Scheme != c.cfg.Scheme.String() {
		return fmt.Errorf("sim: cluster state is for scheme %s, cluster runs %s", st.Scheme, c.cfg.Scheme)
	}
	if st.ChanLo != c.chanLo || st.ChanHi != c.chanHi {
		return fmt.Errorf("sim: cluster state covers channels [%d, %d), cluster owns [%d, %d)",
			st.ChanLo, st.ChanHi, c.chanLo, c.chanHi)
	}
	if st.Seed != c.seed || st.Secret != c.secret {
		return fmt.Errorf("sim: cluster state (seed %d, secret %d) does not match cluster (seed %d, secret %d)",
			st.Seed, st.Secret, c.seed, c.secret)
	}
	if len(st.Tenants) != len(c.tenants) {
		return fmt.Errorf("sim: cluster state has %d tenants, cluster %d", len(st.Tenants), len(c.tenants))
	}
	if len(st.Chans) != len(c.chans) {
		return fmt.Errorf("sim: cluster state has %d channels, cluster %d", len(st.Chans), len(c.chans))
	}
	for i, ts := range st.Tenants {
		t := c.tenants[i]
		if ts.Index != t.index {
			return fmt.Errorf("sim: tenant state %d labelled %d", i, ts.Index)
		}
		if (ts.Tap != nil) && t.tap == nil {
			return fmt.Errorf("sim: tenant %d state carries a tap, tenant has none", i)
		}
		t.rng.Restore(ts.Rand)
		t.nextAt = ts.NextAt
		t.generated = ts.Generated
		t.outstanding = ts.Outstanding
		t.pending, t.hasPending = mem.Request{}, ts.Pending != nil
		if t.hasPending {
			t.pending = *ts.Pending
		}
		t.issued = ts.Issued
		t.completed = ts.Completed
		t.remote = ts.Remote
		t.stalls = ts.Stalls
		t.lastDone = ts.LastDone
		if t.tap != nil {
			t.tap.RestoreState(ts.Tap)
		}
	}
	for i, cs := range st.Chans {
		u := c.chans[i]
		if cs.Index != u.index {
			return fmt.Errorf("sim: channel state %d labelled %d, cluster channel is %d", i, cs.Index, u.index)
		}
		if len(cs.Shapers) != len(u.shapers) {
			return fmt.Errorf("sim: channel %d state has %d shapers, channel %d", u.index, len(cs.Shapers), len(u.shapers))
		}
		if err := u.dev.RestoreState(cs.Device); err != nil {
			return err
		}
		if err := u.ctrl.RestoreState(cs.Controller); err != nil {
			return err
		}
		u.shaperWake = 0
		u.egress = append(u.egress[:0], cs.Egress...)
		u.deferred = append(u.deferred[:0], cs.Deferred...)
		for j, ss := range cs.Shapers {
			if err := u.shapers[j].RestoreState(ss); err != nil {
				return err
			}
		}
	}
	c.now = st.Now
	c.nextID = st.NextID
	c.faultDeferred = st.FaultDeferred
	c.ready, c.waiting = c.ready[:0], c.waiting[:0]
	for _, t := range c.tenants {
		c.file(t)
	}
	return nil
}
