package cpu

import (
	"fmt"
	"sort"

	"dagguise/internal/cache"
	"dagguise/internal/trace"
)

// SlotState mirrors one ROB window slot.
type SlotState struct {
	Op         trace.Op `json:"op"`
	Seq        uint64   `json:"seq"`
	Status     int      `json:"status"`
	Completion uint64   `json:"completion"`
	ReqID      uint64   `json:"req_id"`
	GapLeft    int      `json:"gap_left"`
}

// PairU64 is one entry of a uint64-keyed map, stored as a sorted pair list
// so the serialized form never depends on map iteration order.
type PairU64 struct {
	K uint64 `json:"k"`
	V uint64 `json:"v"`
}

// StreamSave mirrors one prefetcher stream entry.
type StreamSave struct {
	Next    uint64 `json:"next"`
	Ahead   uint64 `json:"ahead"`
	Hits    int    `json:"hits"`
	LastUse uint64 `json:"last_use"`
}

// PrefetcherState mirrors the stream table (nil when prefetching is off).
type PrefetcherState struct {
	Streams []StreamSave `json:"streams"`
	Clock   uint64       `json:"clock"`
}

// CoreState is the core's full mutable state: the instruction window, MSHR
// tracking, writeback and prefetch queues, the trace-source cursor and the
// private cache hierarchy.
type CoreState struct {
	Window      []SlotState          `json:"window,omitempty"`
	BaseSeq     uint64               `json:"base_seq"`
	NextSeq     uint64               `json:"next_seq"`
	InstCount   int                  `json:"inst_count"`
	Outstanding int                  `json:"outstanding"`
	Reads       []PairU64            `json:"reads,omitempty"`
	WBQueue     []uint64             `json:"wb_queue,omitempty"`
	PfPending   []uint64             `json:"pf_pending,omitempty"`
	FillPending []uint64             `json:"fill_pending,omitempty"`
	PfInMem     []PairU64            `json:"pf_in_mem,omitempty"`
	PfIssued    []uint64             `json:"pf_issued,omitempty"`
	Exhausted   bool                 `json:"exhausted"`
	Stats       Stats                `json:"stats"`
	Prefetch    *PrefetcherState     `json:"prefetch,omitempty"`
	Source      trace.SourceState    `json:"source"`
	Cache       cache.HierarchyState `json:"cache"`
}

func sortedPairs(m map[uint64]uint64) []PairU64 {
	if len(m) == 0 {
		return nil
	}
	out := make([]PairU64, 0, len(m))
	for k, v := range m {
		out = append(out, PairU64{K: k, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

// SaveState captures the core's full mutable state. The trace source must
// be checkpointable (implement trace.Stateful).
func (c *Core) SaveState() (CoreState, error) {
	src, ok := c.src.(trace.Stateful)
	if !ok {
		return CoreState{}, fmt.Errorf("cpu: domain %d trace source %T is not checkpointable", c.domain, c.src)
	}
	st := CoreState{
		BaseSeq:     c.baseSeq,
		NextSeq:     c.nextSeq,
		InstCount:   c.instCount,
		Outstanding: c.outstanding,
		Reads:       sortedPairs(c.reads),
		WBQueue:     append([]uint64(nil), c.wbQueue.lines()...),
		PfPending:   append([]uint64(nil), c.pfPending.lines()...),
		FillPending: append([]uint64(nil), c.fillPending.lines()...),
		Exhausted:   c.exhausted,
		Stats:       c.stats,
		Source:      src.SaveState(),
		Cache:       c.hier.SaveState(),
	}
	for seq := c.baseSeq; seq < c.nextSeq; seq++ {
		s := &c.ring[seq&c.mask]
		st.Window = append(st.Window, SlotState{
			Op: s.op, Seq: seq, Status: int(s.status),
			Completion: s.completion, ReqID: s.reqID, GapLeft: s.gapLeft,
		})
	}
	// The wire format stores the in-flight list twice: as request ID ->
	// line address pairs sorted by ID, and as the sorted set of lines.
	for _, f := range c.pfInFlight {
		st.PfInMem = append(st.PfInMem, PairU64{K: f.id, V: f.line * 64})
		st.PfIssued = append(st.PfIssued, f.line)
	}
	sort.Slice(st.PfInMem, func(i, j int) bool { return st.PfInMem[i].K < st.PfInMem[j].K })
	sort.Slice(st.PfIssued, func(i, j int) bool { return st.PfIssued[i] < st.PfIssued[j] })
	if c.pf != nil {
		ps := &PrefetcherState{Clock: c.pf.clock}
		for _, s := range c.pf.streams {
			ps.Streams = append(ps.Streams, StreamSave{Next: s.next, Ahead: s.ahead, Hits: s.hits, LastUse: s.lastUse})
		}
		st.Prefetch = ps
	}
	return st, nil
}

// RestoreState overwrites the core's mutable state. The core must have been
// built with the same configuration and an equivalent trace source.
func (c *Core) RestoreState(st CoreState) error {
	src, ok := c.src.(trace.Stateful)
	if !ok {
		return fmt.Errorf("cpu: domain %d trace source %T is not checkpointable", c.domain, c.src)
	}
	if err := c.checkWindow(st); err != nil {
		return fmt.Errorf("cpu: domain %d: %w", c.domain, err)
	}
	if err := src.RestoreState(st.Source); err != nil {
		return fmt.Errorf("cpu: domain %d trace source: %w", c.domain, err)
	}
	if err := c.hier.RestoreState(st.Cache); err != nil {
		return fmt.Errorf("cpu: domain %d cache: %w", c.domain, err)
	}
	if (c.pf == nil) != (st.Prefetch == nil) {
		return fmt.Errorf("cpu: domain %d prefetcher presence does not match state", c.domain)
	}
	if c.pf != nil {
		if len(st.Prefetch.Streams) != len(c.pf.streams) {
			return fmt.Errorf("cpu: domain %d state holds %d prefetch streams, core has %d",
				c.domain, len(st.Prefetch.Streams), len(c.pf.streams))
		}
		for i, s := range st.Prefetch.Streams {
			c.pf.streams[i] = stream{next: s.Next, ahead: s.Ahead, hits: s.Hits, lastUse: s.LastUse}
		}
		c.pf.clock = st.Prefetch.Clock
	}
	c.pending = c.pending[:0]
	for _, s := range st.Window {
		c.ring[s.Seq&c.mask] = slot{
			op: s.Op, status: opStatus(s.Status),
			completion: s.Completion, reqID: s.ReqID, gapLeft: s.GapLeft,
		}
		if opStatus(s.Status) <= stReady {
			c.pending = append(c.pending, s.Seq)
		}
	}
	c.baseSeq = st.BaseSeq
	c.nextSeq = st.NextSeq
	c.instCount = st.InstCount
	c.outstanding = st.Outstanding
	c.reads = make(map[uint64]uint64, len(st.Reads))
	for _, p := range st.Reads {
		c.reads[p.K] = p.V
	}
	c.wbQueue.reset(st.WBQueue)
	c.pfPending.reset(st.PfPending)
	c.fillPending.reset(st.FillPending)
	c.pfInFlight = c.pfInFlight[:0]
	for _, p := range st.PfInMem {
		c.pfInFlight = append(c.pfInFlight, pfFlight{id: p.K, line: p.V / 64})
	}
	c.exhausted = st.Exhausted
	c.stats = st.Stats
	return nil
}

// checkWindow validates the window and prefetch bookkeeping of a
// checkpoint against the core's dense structures before anything is
// overwritten: the window must fit the ring and hold the contiguous seqs
// [BaseSeq, NextSeq) with statuses the core knows and InstCount
// instructions, every tracked read must point into it, and PfIssued must
// be exactly the lines of PfInMem.
func (c *Core) checkWindow(st CoreState) error {
	if len(st.Window) > len(c.ring) {
		return fmt.Errorf("state window holds %d ops, ring has %d slots", len(st.Window), len(c.ring))
	}
	if st.NextSeq-st.BaseSeq != uint64(len(st.Window)) {
		return fmt.Errorf("state window holds %d ops for seqs [%d, %d)", len(st.Window), st.BaseSeq, st.NextSeq)
	}
	insts := 0
	for i, s := range st.Window {
		if s.Seq != st.BaseSeq+uint64(i) {
			return fmt.Errorf("state window slot %d has seq %d, want %d", i, s.Seq, st.BaseSeq+uint64(i))
		}
		if s.Status < int(stWaitDep) || s.Status > int(stDone) {
			return fmt.Errorf("state window seq %d has unknown status %d", s.Seq, s.Status)
		}
		if s.Op.Gap < 0 {
			return fmt.Errorf("state window seq %d has negative gap %d", s.Seq, s.Op.Gap)
		}
		insts += s.Op.Gap + 1
	}
	// fill relies on this count to keep the window within the ring.
	if st.InstCount != insts {
		return fmt.Errorf("state counts %d window instructions, its ops hold %d", st.InstCount, insts)
	}
	for _, p := range st.Reads {
		if p.V >= st.NextSeq {
			return fmt.Errorf("state read %d points at seq %d, beyond the window end %d", p.K, p.V, st.NextSeq)
		}
	}
	if len(st.PfIssued) != len(st.PfInMem) {
		return fmt.Errorf("state tracks %d in-flight prefetch lines for %d prefetch requests", len(st.PfIssued), len(st.PfInMem))
	}
	lines := make([]uint64, 0, len(st.PfInMem))
	for _, p := range st.PfInMem {
		if p.V%64 != 0 {
			return fmt.Errorf("state prefetch %d address %#x is not line-aligned", p.K, p.V)
		}
		lines = append(lines, p.V/64)
	}
	issued := append([]uint64(nil), st.PfIssued...)
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	sort.Slice(issued, func(i, j int) bool { return issued[i] < issued[j] })
	for i, line := range lines {
		if issued[i] != line || (i > 0 && lines[i-1] == line) {
			return fmt.Errorf("state in-flight prefetch lines %v do not match prefetch requests %v", st.PfIssued, st.PfInMem)
		}
	}
	return nil
}
