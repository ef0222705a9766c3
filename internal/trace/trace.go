// Package trace renders μop lifetimes (obs.Lifetime, reconstructed from
// the internal/obs event stream by obs.Assemble) as a Kanata/Konata log
// for cmd/pipetrace.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// WriteKanata emits the window as a Kanata 0004 log: one lane per μop with
// Dc (decode/backpressure), Sc (scheduler), Is (issue/execute) stages,
// readable by the Konata pipeline viewer.
func WriteKanata(out io.Writer, window []obs.Lifetime) error {
	type event struct {
		cycle uint64
		line  string
	}
	// Eight log lines per μop (see the loop body below).
	events := make([]event, 0, 8*len(window))
	add := func(cycle uint64, format string, args ...any) {
		events = append(events, event{cycle, fmt.Sprintf(format, args...)})
	}
	for i, u := range window {
		id := i
		fetch := uint64(0)
		if u.Decode >= 2 {
			fetch = u.Decode - 2
		}
		add(fetch, "I\t%d\t%d\t0", id, u.Seq)
		add(fetch, "L\t%d\t0\t%d: %s", id, u.Seq, u.Label)
		add(fetch, "S\t%d\t0\tDc", id)
		add(u.Dispatch, "E\t%d\t0\tDc", id)
		add(u.Dispatch, "S\t%d\t0\tSc", id)
		add(u.Issue, "E\t%d\t0\tSc", id)
		add(u.Issue, "S\t%d\t0\tIs", id)
		add(u.Complete, "E\t%d\t0\tIs", id)
		add(u.Complete, "R\t%d\t%d\t0", id, u.Seq)
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].cycle < events[b].cycle })

	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "Kanata\t0004\n")
	if len(events) == 0 {
		return w.Flush()
	}
	fmt.Fprintf(w, "C=\t%d\n", events[0].cycle)
	cur := events[0].cycle
	for _, e := range events {
		if e.cycle > cur {
			fmt.Fprintf(w, "C\t%d\n", e.cycle-cur)
			cur = e.cycle
		}
		fmt.Fprintln(w, e.line)
	}
	return w.Flush()
}
