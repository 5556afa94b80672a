package sim

import (
	"fmt"
	"sort"

	"dagguise/internal/audit"
	"dagguise/internal/camouflage"
	"dagguise/internal/config"
	"dagguise/internal/cpu"
	"dagguise/internal/dram"
	"dagguise/internal/mem"
	"dagguise/internal/memctrl"
	"dagguise/internal/obs"
	"dagguise/internal/sched"
	"dagguise/internal/shaper"
)

// DomainRequests is one shaped domain's staged egress queue.
type DomainRequests struct {
	Domain mem.Domain    `json:"domain"`
	Reqs   []mem.Request `json:"reqs"`
}

// DomainInt is one (domain, int) pair, used for high-water marks.
type DomainInt struct {
	Domain mem.Domain `json:"domain"`
	V      int        `json:"v"`
}

// DomainU64 is one (domain, uint64) pair.
type DomainU64 struct {
	Domain mem.Domain `json:"domain"`
	V      uint64     `json:"v"`
}

// DeferredSave mirrors one fault-withheld response awaiting redelivery.
type DeferredSave struct {
	At   uint64       `json:"at"`
	Resp mem.Response `json:"resp"`
}

// DomainShaperState is one DAGguise shaper's state.
type DomainShaperState struct {
	Domain mem.Domain   `json:"domain"`
	State  shaper.State `json:"state"`
}

// DomainCamoState is one Camouflage shaper's state.
type DomainCamoState struct {
	Domain mem.Domain       `json:"domain"`
	State  camouflage.State `json:"state"`
}

// DomainTapState is one audit tap's recorded samples.
type DomainTapState struct {
	Domain  mem.Domain     `json:"domain"`
	Samples []audit.Sample `json:"samples"`
}

// SystemState is the complete mutable state of a System, sufficient to
// resume a run bit-identically on a machine rebuilt from the same
// configuration and core specs. Scheme and core count are recorded for
// shape validation; everything structural (mapper, policy, wiring) is
// configuration and is rebuilt by New. Deliberately excluded: the egress
// trace ring (an observation log, not machine state — a resumed run's trace
// continues from empty and concatenates with the pre-save trace), the
// watchdog configuration (runtime policy, set by the caller) and the fault
// injector (pure function of its schedule; reattach before restoring).
type SystemState struct {
	Scheme config.Scheme `json:"scheme"`
	Cores  int           `json:"cores"`

	Now    uint64 `json:"now"`
	NextID uint64 `json:"next_id"`

	CoreStates []cpu.CoreState         `json:"core_states"`
	Device     dram.DeviceState        `json:"device"`
	Ctrl       memctrl.ControllerState `json:"ctrl"`
	Sched      *sched.State            `json:"sched,omitempty"`
	Shapers    []DomainShaperState     `json:"shapers,omitempty"`
	Camos      []DomainCamoState       `json:"camos,omitempty"`

	Egress   []DomainRequests `json:"egress,omitempty"`
	Deferred []DeferredSave   `json:"deferred,omitempty"`
	EgressHW []DomainInt      `json:"egress_hw,omitempty"`

	LastProgress uint64 `json:"last_progress"`
	LastRetired  uint64 `json:"last_retired"`

	AuditTaps []DomainTapState `json:"audit_taps,omitempty"`
	AuditLast []DomainU64      `json:"audit_last,omitempty"`

	// Obs is the observability registry snapshot when one is attached,
	// so metrics after a resume match an uninterrupted run.
	Obs *obs.Snapshot `json:"obs,omitempty"`

	// Spans is the flight-recorder span state when a recorder is
	// attached: spans open at Save reopen identically after a restore
	// (same IDs, parents, names and start cycles) and ID allocation
	// resumes without collision. Absent in checkpoints written before
	// the flight recorder existed, which restores as "no spans".
	Spans *obs.SpansState `json:"spans,omitempty"`
}

// SaveState captures the system's complete mutable state. Every core's
// trace source must be checkpointable (trace.Stateful); every shaper's
// driver must be checkpointable (both rdag drivers are).
func (s *System) SaveState() (*SystemState, error) {
	st := &SystemState{
		Scheme:       s.cfg.Scheme,
		Cores:        len(s.cores),
		Now:          s.now,
		NextID:       s.nextID,
		Device:       s.dev.SaveState(),
		Ctrl:         s.ctrl.SaveState(),
		LastProgress: s.lastProgress,
		LastRetired:  s.lastRetired,
		Obs:          s.mx.Snapshot(),
		Spans:        s.spans.SaveState(),
	}
	for _, c := range s.cores {
		cs, err := c.SaveState()
		if err != nil {
			return nil, err
		}
		st.CoreStates = append(st.CoreStates, cs)
	}
	if ss, ok := s.policy.(sched.StatefulScheduler); ok {
		sst := ss.SaveState()
		st.Sched = &sst
	}
	for _, dom := range s.order {
		ln := &s.lanes[dom]
		if ln.sh != nil {
			shs, err := ln.sh.SaveState()
			if err != nil {
				return nil, err
			}
			st.Shapers = append(st.Shapers, DomainShaperState{Domain: dom, State: shs})
		} else {
			st.Camos = append(st.Camos, DomainCamoState{Domain: dom, State: ln.camo.SaveState()})
		}
		if len(ln.egress) > 0 {
			st.Egress = append(st.Egress, DomainRequests{Domain: dom, Reqs: append([]mem.Request(nil), ln.egress...)})
		}
		// Every shaped domain reports a high-water mark, in domain order.
		st.EgressHW = append(st.EgressHW, DomainInt{Domain: dom, V: ln.hw})
	}
	for _, d := range s.deferred {
		st.Deferred = append(st.Deferred, DeferredSave{At: d.at, Resp: d.resp})
	}
	for dom, tap := range s.auditTaps {
		st.AuditTaps = append(st.AuditTaps, DomainTapState{Domain: dom, Samples: tap.SaveState()})
	}
	sort.Slice(st.AuditTaps, func(i, j int) bool { return st.AuditTaps[i].Domain < st.AuditTaps[j].Domain })
	for dom, last := range s.auditLast {
		st.AuditLast = append(st.AuditLast, DomainU64{Domain: dom, V: last})
	}
	sort.Slice(st.AuditLast, func(i, j int) bool { return st.AuditLast[i].Domain < st.AuditLast[j].Domain })
	return st, nil
}

// RestoreState overwrites the system's mutable state with a previously
// saved one. The system must have been built by New from the same
// configuration and equivalent core specs; attach any fault schedule
// before restoring (the device's saved stall-window set replaces whatever
// AttachFaults registered). Audit taps present in the state are restored
// only into taps already attached with AuditResponses.
func (s *System) RestoreState(st *SystemState) error {
	if st.Scheme != s.cfg.Scheme {
		return fmt.Errorf("sim: state was saved under scheme %v, system runs %v", st.Scheme, s.cfg.Scheme)
	}
	if st.Cores != len(s.cores) || len(st.CoreStates) != len(s.cores) {
		return fmt.Errorf("sim: state holds %d cores, system has %d", st.Cores, len(s.cores))
	}
	if err := s.checkLanes(st); err != nil {
		return err
	}
	for i, c := range s.cores {
		if err := c.RestoreState(st.CoreStates[i]); err != nil {
			return err
		}
	}
	if err := s.dev.RestoreState(st.Device); err != nil {
		return err
	}
	if err := s.ctrl.RestoreState(st.Ctrl); err != nil {
		return err
	}
	if ss, ok := s.policy.(sched.StatefulScheduler); ok {
		if st.Sched == nil {
			return fmt.Errorf("sim: state missing %s arbiter state", s.policy.Name())
		}
		if err := ss.RestoreState(*st.Sched); err != nil {
			return err
		}
	} else if st.Sched != nil {
		return fmt.Errorf("sim: state carries %q arbiter state, system policy %s is stateless", st.Sched.Kind, s.policy.Name())
	}
	for _, ds := range st.Shapers {
		if err := s.lanes[ds.Domain].sh.RestoreState(ds.State); err != nil {
			return err
		}
	}
	for _, ds := range st.Camos {
		if err := s.lanes[ds.Domain].camo.RestoreState(ds.State); err != nil {
			return err
		}
	}
	for i := range s.lanes {
		s.lanes[i].egress = s.lanes[i].egress[:0]
		s.lanes[i].hw = 0
	}
	for _, dq := range st.Egress {
		ln := &s.lanes[dq.Domain]
		ln.egress = append(ln.egress[:0], dq.Reqs...)
	}
	s.deferred = s.deferred[:0]
	for _, d := range st.Deferred {
		s.deferred = append(s.deferred, deferredResp{at: d.At, resp: d.Resp})
	}
	for _, di := range st.EgressHW {
		s.lanes[di.Domain].hw = di.V
	}
	for _, dt := range st.AuditTaps {
		if tap, ok := s.auditTaps[dt.Domain]; ok {
			tap.RestoreState(dt.Samples)
		}
	}
	if len(st.AuditLast) > 0 && s.auditLast == nil {
		s.auditLast = make(map[mem.Domain]uint64)
	}
	for _, du := range st.AuditLast {
		s.auditLast[du.Domain] = du.V
	}
	if s.mx != nil && st.Obs != nil {
		if err := s.mx.Restore(st.Obs); err != nil {
			return err
		}
	}
	if s.spans != nil && st.Spans != nil {
		if err := s.spans.RestoreState(st.Spans); err != nil {
			return err
		}
	}
	s.now = st.Now
	s.nextID = st.NextID
	s.lastProgress = st.LastProgress
	s.lastRetired = st.LastRetired
	s.portErr = nil
	return nil
}

// checkLanes validates the per-domain parts of a checkpoint against the
// system's lanes before anything is overwritten. Shaper states must name
// the shaped domains in service order, as SaveState writes them; egress
// queues and high-water marks must name a shaped domain in 1..cores.
func (s *System) checkLanes(st *SystemState) error {
	var shapers, camos []mem.Domain
	for _, dom := range s.order {
		if s.lanes[dom].sh != nil {
			shapers = append(shapers, dom)
		} else {
			camos = append(camos, dom)
		}
	}
	if len(st.Shapers) != len(shapers) || len(st.Camos) != len(camos) {
		return fmt.Errorf("sim: state holds %d shapers and %d camouflage shapers, system has %d and %d",
			len(st.Shapers), len(st.Camos), len(shapers), len(camos))
	}
	for i, ds := range st.Shapers {
		if ds.Domain != shapers[i] {
			return fmt.Errorf("sim: state holds shaper state for domain %d where the system shapes domain %d", ds.Domain, shapers[i])
		}
	}
	for i, ds := range st.Camos {
		if ds.Domain != camos[i] {
			return fmt.Errorf("sim: state holds camouflage state for domain %d where the system shapes domain %d", ds.Domain, camos[i])
		}
	}
	shaped := func(what string, dom mem.Domain) error {
		if dom == 0 || int(dom) >= len(s.lanes) || (s.lanes[dom].sh == nil && s.lanes[dom].camo == nil) {
			return fmt.Errorf("sim: state holds %s for domain %d, which is not a shaped domain in 1..%d", what, dom, len(s.cores))
		}
		return nil
	}
	for _, dq := range st.Egress {
		if err := shaped("an egress queue", dq.Domain); err != nil {
			return err
		}
	}
	for _, di := range st.EgressHW {
		if err := shaped("an egress high-water mark", di.Domain); err != nil {
			return err
		}
	}
	return nil
}
