package camouflage

import (
	"fmt"

	"dagguise/internal/mem"
	"dagguise/internal/rng"
)

// State is the Camouflage shaper's full mutable state: the private queue,
// the remaining intervals of the current epoch, the injection clock and the
// interval-sampling PRNG position.
type State struct {
	Queue    []mem.Request `json:"queue,omitempty"`
	Pool     []uint64      `json:"pool,omitempty"`
	LastEmit uint64        `json:"last_emit"`
	NextAt   uint64        `json:"next_at"`
	Started  bool          `json:"started"`
	Stats    Stats         `json:"stats"`
	Rand     rng.State     `json:"rand"`
}

// SaveState captures the shaper's full mutable state.
func (s *Shaper) SaveState() State {
	return State{
		Queue:    append([]mem.Request(nil), s.queue[s.head:]...),
		Pool:     append([]uint64(nil), s.pool...),
		LastEmit: s.lastEmit,
		NextAt:   s.nextAt,
		Started:  s.started,
		Stats:    s.stats,
		Rand:     s.rng.State(),
	}
}

// RestoreState overwrites the shaper's mutable state.
func (s *Shaper) RestoreState(st State) error {
	if len(st.Queue) > s.capacity {
		return fmt.Errorf("camouflage: state queue depth %d exceeds capacity %d", len(st.Queue), s.capacity)
	}
	s.queue, s.head = append(s.queue[:0], st.Queue...), 0
	s.pool = append(s.pool[:0], st.Pool...)
	s.lastEmit = st.LastEmit
	s.nextAt = st.NextAt
	s.started = st.Started
	s.stats = st.Stats
	s.rng.Restore(st.Rand)
	return nil
}
