package obs

// Lifetime is one committed μop's reconstructed stage timeline (cycles):
// the record behind the Chrome trace slices, the Kanata log and
// cmd/pipetrace's Gantt view.
type Lifetime struct {
	Seq   uint64
	Label string
	Port  int // issue port, from the dispatch event

	Decode   uint64
	Dispatch uint64
	Ready    uint64 // operand-ready cycle, from the issue event
	Issue    uint64
	Complete uint64 // execution completion, never before Issue
	Commit   uint64
}

// inflight accumulates one sequence number's stage events until commit
// (kept) or squash (dropped and rebuilt on refetch).
type inflight struct {
	Lifetime
	dispatched, issued bool
}

// LifetimeTracker is the μop-lifetime state machine over a streaming
// event feed: decode opens a timeline, dispatch/issue/exec fill it in,
// squash discards it, and commit yields it. A refetched μop therefore
// reports its committed incarnation, and a commit without a decode,
// dispatch and issue before it yields nothing (partial timelines are
// dropped, never emitted). The zero value is ready to use.
type LifetimeTracker struct {
	live map[uint64]*inflight
}

// Observe folds one event into the tracker and returns the μop's
// Lifetime when e commits a complete timeline.
func (t *LifetimeTracker) Observe(e *Event) (Lifetime, bool) {
	switch e.Kind {
	case KindDecode:
		if t.live == nil {
			t.live = make(map[uint64]*inflight, 256)
		}
		t.live[e.Seq] = &inflight{Lifetime: Lifetime{Seq: e.Seq, Label: e.Label, Decode: e.Cycle}}
	case KindDispatch:
		if f := t.live[e.Seq]; f != nil {
			f.Dispatch, f.Port, f.dispatched = e.Cycle, int(e.Port), true
		}
	case KindIssue:
		if f := t.live[e.Seq]; f != nil {
			f.Issue, f.Ready, f.issued = e.Cycle, e.Arg, true
		}
	case KindExec:
		if f := t.live[e.Seq]; f != nil {
			f.Complete = e.Arg
		}
	case KindSquash:
		delete(t.live, e.Seq)
	case KindCommit:
		f := t.live[e.Seq]
		delete(t.live, e.Seq)
		if f == nil || !f.dispatched || !f.issued {
			return Lifetime{}, false
		}
		f.Commit = e.Cycle
		if f.Complete < f.Issue {
			f.Complete = f.Issue
		}
		return f.Lifetime, true
	}
	return Lifetime{}, false
}

// Assemble replays a recorded event stream and returns the committed
// μops with sequence numbers in [from, to), in commit order.
func Assemble(events []Event, from, to uint64) []Lifetime {
	var t LifetimeTracker
	var window []Lifetime
	for i := range events {
		if u, ok := t.Observe(&events[i]); ok && u.Seq >= from && u.Seq < to {
			window = append(window, u)
		}
	}
	return window
}
