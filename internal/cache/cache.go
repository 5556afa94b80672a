// Package cache implements the private L1/L2 and per-core L3 slice of the
// Table 2 hierarchy: set-associative, LRU replacement, write-back with
// write-allocate. The hierarchy is evaluated functionally (hit level and
// latency are determined at access time) which keeps the simulator fast
// while preserving the miss stream's addresses, mix and density — the
// inputs that matter to the memory-side evaluation.
//
// L3 is modelled as a private per-core slice rather than one shared array:
// DAGguise targets the memory-controller channel, and the paper's
// evaluation isolates it from cache-occupancy channels (which need their
// own defenses, e.g. partitioning).
package cache

import (
	"fmt"

	"dagguise/internal/config"
)

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // higher = more recent
}

// Stats counts per-level outcomes.
type Stats struct {
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	DirtyEvictions uint64
}

// Cache is one set-associative level.
type Cache struct {
	sets      [][]line
	ways      int
	lineShift uint
	setMask   uint64
	latency   uint64
	clock     uint64
	stats     Stats
}

// New builds a cache level from its configuration.
func New(cfg config.CacheLevel) (*Cache, error) {
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d must be a positive power of two", sets)
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d must be a positive power of two", cfg.LineBytes)
	}
	c := &Cache{
		sets:    make([][]line, sets),
		ways:    cfg.Ways,
		setMask: uint64(sets - 1),
		latency: uint64(cfg.LatencyCycles),
	}
	var shift uint
	for v := cfg.LineBytes; v > 1; v >>= 1 {
		shift++
	}
	c.lineShift = shift
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	return c, nil
}

// MustNew panics on configuration error.
func MustNew(cfg config.CacheLevel) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Latency returns the level's round-trip hit latency in CPU cycles.
func (c *Cache) Latency() uint64 { return c.latency }

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	l := addr >> c.lineShift
	return l & c.setMask, l >> 0
}

// Lookup probes the cache for addr, updating LRU on hit. markDirty sets
// the line's dirty bit (for stores).
func (c *Cache) Lookup(addr uint64, markDirty bool) bool {
	set, tag := c.index(addr)
	c.clock++
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.lru = c.clock
			if markDirty {
				ln.dirty = true
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Victim describes a line displaced by Insert.
type Victim struct {
	Addr  uint64
	Dirty bool
}

// Insert allocates addr (possibly dirty). If a valid line is displaced it
// is returned with evicted=true.
func (c *Cache) Insert(addr uint64, dirty bool) (v Victim, evicted bool) {
	set, tag := c.index(addr)
	c.clock++
	var lruIdx int
	var lruVal uint64 = ^uint64(0)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			// Already present (e.g. refill racing an earlier insert);
			// just refresh.
			ln.lru = c.clock
			if dirty {
				ln.dirty = true
			}
			return Victim{}, false
		}
		if !ln.valid {
			*ln = line{tag: tag, valid: true, dirty: dirty, lru: c.clock}
			return Victim{}, false
		}
		if ln.lru < lruVal {
			lruVal = ln.lru
			lruIdx = i
		}
	}
	old := c.sets[set][lruIdx]
	c.sets[set][lruIdx] = line{tag: tag, valid: true, dirty: dirty, lru: c.clock}
	c.stats.Evictions++
	if old.dirty {
		c.stats.DirtyEvictions++
	}
	// Reconstruct the victim address: tag holds the full line number.
	return Victim{Addr: old.tag << c.lineShift, Dirty: old.dirty}, true
}

// Stats returns the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// Hierarchy is the private three-level stack of one core.
type Hierarchy struct {
	L1, L2, L3 *Cache
	memKinds   bool
	wb         []uint64 // writebacks of the last Access or PrefetchFill, reused
}

// NewHierarchy builds a hierarchy from the system configuration. The L3
// slice is sized as cfg.L3.SizeBytes / cfg.Cores (per-core slice).
func NewHierarchy(cfg config.SystemConfig) (*Hierarchy, error) {
	l1, err := New(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	l3cfg := cfg.L3
	l3cfg.SizeBytes = cfg.L3.SizeBytes / cfg.Cores
	l3, err := New(l3cfg)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1: l1, L2: l2, L3: l3}, nil
}

// Result describes one hierarchy access.
type Result struct {
	// Level is the hit level: 1, 2, 3, or 4 for memory.
	Level int
	// Latency is the hit latency in CPU cycles; for memory misses it is
	// the L3 latency already paid before the request leaves the chip
	// (the memory latency is added dynamically by the simulator).
	Latency uint64
	// MissToMem reports whether a memory read must be issued.
	MissToMem bool
	// Writebacks lists dirty-line addresses displaced to memory. It is
	// valid until the next Access or PrefetchFill on the hierarchy.
	Writebacks []uint64
}

// Access performs a load or store at addr.
func (h *Hierarchy) Access(addr uint64, write bool) Result {
	if h.L1.Lookup(addr, write) {
		return Result{Level: 1, Latency: h.L1.Latency()}
	}
	if h.L2.Lookup(addr, false) {
		h.fill(addr, write, 1)
		return Result{Level: 2, Latency: h.L2.Latency()}
	}
	if h.L3.Lookup(addr, false) {
		h.fill(addr, write, 2)
		return Result{Level: 3, Latency: h.L3.Latency()}
	}
	// Both loads and stores fetch the line from memory on a full miss
	// (write-allocate); the core issues the store's fill read without
	// stalling retirement.
	res := Result{Level: 4, Latency: h.L3.Latency(), MissToMem: true}
	res.Writebacks = h.fill(addr, write, 3)
	return res
}

// fill allocates addr into all levels up to and including upTo (1-based),
// cascading dirty evictions downwards and returning those that leave L3.
func (h *Hierarchy) fill(addr uint64, dirty bool, upTo int) []uint64 {
	toMem := h.wb[:0]
	if v, ev := h.L1.Insert(addr, dirty); ev && v.Dirty && upTo >= 1 {
		// L1 dirty victim moves to L2.
		if v2, ev2 := h.L2.Insert(v.Addr, true); ev2 && v2.Dirty {
			if v3, ev3 := h.L3.Insert(v2.Addr, true); ev3 && v3.Dirty {
				toMem = append(toMem, v3.Addr)
			}
		}
	}
	if upTo >= 2 {
		if v, ev := h.L2.Insert(addr, false); ev && v.Dirty {
			if v3, ev3 := h.L3.Insert(v.Addr, true); ev3 && v3.Dirty {
				toMem = append(toMem, v3.Addr)
			}
		}
	}
	if upTo >= 3 {
		if v, ev := h.L3.Insert(addr, false); ev && v.Dirty {
			toMem = append(toMem, v.Addr)
		}
	}
	h.wb = toMem
	return toMem
}

// Contains probes for addr without updating replacement state, used by the
// prefetcher to filter redundant prefetches.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// Contains reports whether any level holds addr (read-only probe).
func (h *Hierarchy) Contains(addr uint64) bool {
	return h.L1.Contains(addr) || h.L2.Contains(addr) || h.L3.Contains(addr)
}

// PrefetchFill installs a prefetched line into L2 and L3 (not L1, matching
// an L2 stream prefetcher), returning dirty lines displaced to memory. The
// result is valid until the next Access or PrefetchFill.
func (h *Hierarchy) PrefetchFill(addr uint64) []uint64 {
	toMem := h.wb[:0]
	if v, ev := h.L2.Insert(addr, false); ev && v.Dirty {
		if v3, ev3 := h.L3.Insert(v.Addr, true); ev3 && v3.Dirty {
			toMem = append(toMem, v3.Addr)
		}
	}
	if v, ev := h.L3.Insert(addr, false); ev && v.Dirty {
		toMem = append(toMem, v.Addr)
	}
	h.wb = toMem
	return toMem
}

// MPKI returns misses-to-memory per kilo-instruction given an instruction
// count (uses the L3 miss counter).
func (h *Hierarchy) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(h.L3.Stats().Misses) / float64(instructions) * 1000
}
