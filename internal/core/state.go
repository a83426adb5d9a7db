package core

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// This file adds snapshot/restore of the allocator's persistent state.
// The paper notes AdapTBF keeps only (jobID, record) in runtime memory
// (§IV-G); persisting that state across controller restarts preserves the
// lending/borrowing ledger — without it, a restart would amnesty every
// borrower.

// stateVersion guards the snapshot format.
const stateVersion = 1

// snapshot is the serialized allocator state.
type snapshot struct {
	Version    int               `json:"version"`
	MaxRate    float64           `json:"maxRate"`
	PeriodNs   int64             `json:"periodNs"`
	PeriodIdx  int               `json:"periodIdx"`
	PoolCarry  float64           `json:"poolCarry"`
	Records    map[JobID]float64 `json:"records"`
	Remainders map[JobID]float64 `json:"remainders"`
	PrevAlloc  map[JobID]int64   `json:"prevAlloc"`
	LastActive map[JobID]int     `json:"lastActive"`
}

// SaveState writes the allocator's persistent state (records, remainders,
// previous allocations) as JSON.
func (a *Allocator) SaveState(w io.Writer) error {
	s := snapshot{
		Version:    stateVersion,
		MaxRate:    a.maxRate,
		PeriodNs:   int64(a.period),
		PeriodIdx:  a.periodIdx,
		PoolCarry:  a.poolCarry,
		Records:    make(map[JobID]float64, len(a.index)),
		Remainders: make(map[JobID]float64, len(a.index)),
		PrevAlloc:  make(map[JobID]int64, len(a.index)),
		LastActive: make(map[JobID]int, len(a.index)),
	}
	for job, slot := range a.index {
		st := &a.state[slot]
		s.Records[job] = st.record
		s.Remainders[job] = st.remainder
		s.PrevAlloc[job] = st.prevAlloc
		s.LastActive[job] = st.lastActive
	}
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// LoadState restores state saved by SaveState. The snapshot's MaxRate and
// Period must match the allocator's configuration: records are
// denominated in tokens per period, so restoring them into a differently
// configured allocator would silently rescale every debt.
func (a *Allocator) LoadState(r io.Reader) error {
	var s snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("core: decoding state: %w", err)
	}
	if s.Version != stateVersion {
		return fmt.Errorf("core: state version %d, want %d", s.Version, stateVersion)
	}
	if s.MaxRate != a.maxRate || time.Duration(s.PeriodNs) != a.period {
		return fmt.Errorf("core: state for T_i=%v Δt=%v does not match allocator T_i=%v Δt=%v",
			s.MaxRate, time.Duration(s.PeriodNs), a.maxRate, a.period)
	}
	a.Reset()
	a.periodIdx = s.PeriodIdx
	a.poolCarry = s.PoolCarry
	for job, v := range s.Records {
		a.state[a.slotOf(job)].record = v
	}
	for job, v := range s.Remainders {
		a.state[a.slotOf(job)].remainder = v
	}
	for job, v := range s.PrevAlloc {
		a.state[a.slotOf(job)].prevAlloc = v
	}
	for job, v := range s.LastActive {
		a.state[a.slotOf(job)].lastActive = v
	}
	return nil
}
