package obs

import "testing"

// stream is a hand-built event sequence: three μops through the full
// pipeline, one of them (seq 11) squashed once by a flush and refetched.
func stream() []Event {
	ev := func(k Kind, cycle, seq, arg uint64, label string) Event {
		return Event{Kind: k, Cycle: cycle, Seq: seq, Arg: arg, Label: label}
	}
	return []Event{
		ev(KindDecode, 2, 10, 0, "pc=0 alu.add r1"),
		ev(KindDispatch, 4, 10, 0, ""),
		ev(KindDecode, 3, 11, 0, "pc=1 load r2, [0x40]"),
		ev(KindDispatch, 5, 11, 0, ""),
		ev(KindIssue, 6, 10, 5, ""),
		ev(KindExec, 6, 10, 7, ""),
		ev(KindCommit, 8, 10, 0, ""),
		// Flush: seq 11's first incarnation dies before issuing.
		ev(KindFlush, 9, 11, 0, ""),
		ev(KindSquash, 9, 11, 0, ""),
		// Refetch and complete.
		ev(KindDecode, 11, 11, 0, "pc=1 load r2, [0x40]"),
		ev(KindDispatch, 13, 11, 0, ""),
		ev(KindIssue, 14, 11, 13, ""),
		ev(KindExec, 14, 11, 18, ""),
		ev(KindDecode, 12, 12, 0, "pc=2 alu.and r3"),
		ev(KindDispatch, 14, 12, 0, ""),
		ev(KindIssue, 19, 12, 18, ""),
		ev(KindExec, 19, 12, 20, ""),
		ev(KindCommit, 19, 11, 0, ""),
		ev(KindCommit, 21, 12, 0, ""),
	}
}

func TestAssemble(t *testing.T) {
	w := Assemble(stream(), 10, 13)
	if len(w) != 3 {
		t.Fatalf("got %d μops, want 3", len(w))
	}
	// Commit order.
	for i, want := range []uint64{10, 11, 12} {
		if w[i].Seq != want {
			t.Errorf("window[%d].Seq = %d, want %d", i, w[i].Seq, want)
		}
	}
	// Seq 11 must reflect the refetched (committed) incarnation.
	u := w[1]
	if u.Decode != 11 || u.Dispatch != 13 || u.Issue != 14 || u.Ready != 13 || u.Complete != 18 || u.Commit != 19 {
		t.Errorf("seq 11 timeline = %+v, want refetched incarnation", u)
	}
	if u.Label != "pc=1 load r2, [0x40]" {
		t.Errorf("seq 11 label = %q", u.Label)
	}

	if got := Assemble(stream(), 11, 12); len(got) != 1 || got[0].Seq != 11 {
		t.Errorf("sub-window [11,12) = %+v", got)
	}
	if got := Assemble(nil, 0, 100); got != nil {
		t.Errorf("empty stream: got %+v", got)
	}
}

// TestAssembleIncomplete drops partial timelines rather than emitting
// garbage: a commit without a preceding decode/dispatch/issue is skipped.
func TestAssembleIncomplete(t *testing.T) {
	events := []Event{
		{Kind: KindCommit, Cycle: 5, Seq: 1},
		{Kind: KindDecode, Cycle: 1, Seq: 2, Label: "x"},
		{Kind: KindCommit, Cycle: 6, Seq: 2},
	}
	if got := Assemble(events, 0, 100); len(got) != 0 {
		t.Errorf("incomplete timelines leaked: %+v", got)
	}
}
