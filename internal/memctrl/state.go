package memctrl

import (
	"fmt"

	"dagguise/internal/mem"
)

// CompletionSave mirrors one in-flight completion. The slice preserves the
// heap's backing-array order, which is itself a valid heap, so restoring it
// verbatim reproduces the exact pop order.
type CompletionSave struct {
	At   uint64       `json:"at"`
	Resp mem.Response `json:"resp"`
}

// DomainBytes is one domain's served-bytes counter, stored as a sorted pair
// list so the serialized form never depends on map iteration order.
type DomainBytes struct {
	Domain mem.Domain `json:"domain"`
	Bytes  uint64     `json:"bytes"`
}

// ControllerState is the controller's full mutable state. Coordinates,
// the bank index and per-domain occupancy are derived data, recomputed
// on restore from the queue.
type ControllerState struct {
	Queue    []mem.Request    `json:"queue"`
	Inflight []CompletionSave `json:"inflight"`
	Stats    Stats            `json:"stats"`
	ByDomain []DomainBytes    `json:"by_domain,omitempty"`
}

// SaveState captures the controller's full mutable state.
func (c *Controller) SaveState() ControllerState {
	st := ControllerState{Stats: c.stats}
	for i := c.queue.head; i != none; i = c.queue.slots[i].next {
		st.Queue = append(st.Queue, c.queue.slots[i].Req)
	}
	for _, f := range c.inflight {
		st.Inflight = append(st.Inflight, CompletionSave{At: f.at, Resp: f.resp})
	}
	// Served bytes only ever grow by a positive line size, so the zero
	// entries are exactly the domains never served.
	for d, b := range c.byDomain {
		if b != 0 {
			st.ByDomain = append(st.ByDomain, DomainBytes{Domain: mem.Domain(d), Bytes: b})
		}
	}
	return st
}

// RestoreState overwrites the controller's mutable state, recomputing every
// derived structure (decoded coordinates, the bank index, per-domain
// occupancy) and clearing the scheduler's wake cycle.
func (c *Controller) RestoreState(st ControllerState) error {
	if len(st.Queue) > c.capacity {
		return fmt.Errorf("memctrl: state queue depth %d exceeds capacity %d", len(st.Queue), c.capacity)
	}
	c.wake = 0
	c.queue.reset()
	clear(c.perDomain)
	for _, req := range st.Queue {
		coord := c.mapper.Decode(req.Addr)
		c.queue.push(Entry{Req: req, Coord: coord}, c.mapper.FlatBank(coord))
		if c.domainCap > 0 {
			c.perDomain = growFor(c.perDomain, req.Domain)
			c.perDomain[req.Domain]++
			if c.perDomain[req.Domain] > c.domainCap {
				return fmt.Errorf("memctrl: state holds %d queued requests for domain %d, partition cap is %d",
					c.perDomain[req.Domain], req.Domain, c.domainCap)
			}
		}
	}
	c.inflight = c.inflight[:0]
	for _, f := range st.Inflight {
		c.inflight = append(c.inflight, completion{at: f.At, resp: f.Resp})
	}
	c.stats = st.Stats
	clear(c.byDomain)
	for _, db := range st.ByDomain {
		c.byDomain = growFor(c.byDomain, db.Domain)
		c.byDomain[db.Domain] = db.Bytes
	}
	return nil
}
