package sched

import (
	"repro/internal/container"
	"repro/internal/rename"
)

// InO is the stall-on-use in-order scoreboard core of Table II: a single
// FIFO issue queue from whose head consecutive ready μops issue strictly in
// program order; the first non-ready μop blocks everything younger.
type InO struct {
	entries container.Ring[*UOp] // FIFO, At(0) is the oldest
	width   int
	events  EnergyEvents
	issued  uint64
	ports   PortMask
	stalls  uint64 // cycles the head was blocked while μops waited
}

// NewInO returns an in-order scheduler with the given queue capacity and
// issue width.
func NewInO(capacity, width int) *InO {
	s := &InO{width: width}
	s.entries.Init(capacity)
	return s
}

// Name implements Scheduler.
func (s *InO) Name() string { return "InO" }

// Capacity implements Scheduler.
func (s *InO) Capacity() int { return s.entries.Cap() }

// Occupancy implements Scheduler.
func (s *InO) Occupancy() int { return s.entries.Len() }

// Dispatch implements Scheduler.
func (s *InO) Dispatch(u *UOp, _ uint64) bool {
	if s.entries.Full() {
		return false
	}
	s.entries.Push(u)
	s.events.QueueWrites++
	return true
}

// Issue implements Scheduler: grant ready μops from the head, in order,
// stopping at the first that cannot issue.
func (s *InO) Issue(cycle uint64, ctx *IssueCtx) {
	s.ports.Reset()
	portUsed := &s.ports
	granted := 0
	s.entries.SelectOldest(func(u *UOp) container.Verdict {
		if granted >= s.width {
			return container.Stop
		}
		s.chargeHeadRead(1)
		if !ctx.Ready(u) {
			s.stalls++
			return container.Stop
		}
		if portUsed.Used(u.Port) {
			if ctx.PortBlocked != nil {
				ctx.PortBlocked(u)
			}
			s.stalls++
			return container.Stop
		}
		ctx.Grant(u)
		s.events.PayloadReads++
		portUsed.Set(u.Port)
		s.issued++
		granted++
		return container.Take
	})
}

// SkipIdle implements Scheduler: a blocked head is re-read and counted as
// a head stall every cycle.
func (s *InO) SkipIdle(_, n uint64, _ int) bool {
	if !s.entries.Empty() {
		s.chargeHeadRead(n)
		s.stalls += n
	}
	return true
}

// chargeHeadRead charges k reads of a queue entry and its two P-SCB
// source entries, shared by Issue (k = 1) and SkipIdle (k = n).
func (s *InO) chargeHeadRead(k uint64) {
	s.events.QueueReads += k
	s.events.PSCBReads += 2 * k
}

// Complete implements Scheduler. The scoreboard core re-reads readiness at
// the head; no CAM broadcast energy.
func (s *InO) Complete(rename.PhysReg, uint64) {}

// Flush implements Scheduler.
func (s *InO) Flush(seq uint64) {
	s.entries.FlushFrom(seq)
}

// Queues implements Inspector: the single in-order FIFO.
func (s *InO) Queues() []QueueSnapshot {
	seqs := make([]uint64, s.entries.Len())
	for i := range seqs {
		seqs[i] = s.entries.At(i).Seq()
	}
	return []QueueSnapshot{{Name: "IQ", FIFO: true, Cap: s.entries.Cap(), Seqs: seqs}}
}

// Energy implements Scheduler.
func (s *InO) Energy() EnergyEvents { return s.events }

// Counters implements Scheduler.
func (s *InO) Counters() map[string]uint64 {
	return map[string]uint64{
		"issued":      s.issued,
		"head_stalls": s.stalls,
	}
}

var _ Scheduler = (*InO)(nil)
