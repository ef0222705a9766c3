package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// stream is a hand-built event sequence: three μops through the full
// pipeline, one of them (seq 11) squashed once by a flush and refetched.
func stream() []obs.Event {
	ev := func(k obs.Kind, cycle, seq, arg uint64, label string) obs.Event {
		return obs.Event{Kind: k, Cycle: cycle, Seq: seq, Arg: arg, Label: label}
	}
	return []obs.Event{
		ev(obs.KindDecode, 2, 10, 0, "pc=0 alu.add r1"),
		ev(obs.KindDispatch, 4, 10, 0, ""),
		ev(obs.KindDecode, 3, 11, 0, "pc=1 load r2, [0x40]"),
		ev(obs.KindDispatch, 5, 11, 0, ""),
		ev(obs.KindIssue, 6, 10, 5, ""),
		ev(obs.KindExec, 6, 10, 7, ""),
		ev(obs.KindCommit, 8, 10, 0, ""),
		// Flush: seq 11's first incarnation dies before issuing.
		ev(obs.KindFlush, 9, 11, 0, ""),
		ev(obs.KindSquash, 9, 11, 0, ""),
		// Refetch and complete.
		ev(obs.KindDecode, 11, 11, 0, "pc=1 load r2, [0x40]"),
		ev(obs.KindDispatch, 13, 11, 0, ""),
		ev(obs.KindIssue, 14, 11, 13, ""),
		ev(obs.KindExec, 14, 11, 18, ""),
		ev(obs.KindDecode, 12, 12, 0, "pc=2 alu.and r3"),
		ev(obs.KindDispatch, 14, 12, 0, ""),
		ev(obs.KindIssue, 19, 12, 18, ""),
		ev(obs.KindExec, 19, 12, 20, ""),
		ev(obs.KindCommit, 19, 11, 0, ""),
		ev(obs.KindCommit, 21, 12, 0, ""),
	}
}

func TestWriteKanataGolden(t *testing.T) {
	window := obs.Assemble(stream(), 10, 13)
	var buf bytes.Buffer
	if err := WriteKanata(&buf, window); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	golden := filepath.Join("testdata", "kanata.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("Kanata output drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}

	// Structural sanity independent of the golden bytes.
	if !strings.HasPrefix(got, "Kanata\t0004\n") {
		t.Errorf("missing Kanata 0004 header: %q", got[:min(len(got), 20)])
	}
	retires := strings.Count(got, "\nR\t")
	if retires != len(window) {
		t.Errorf("retire lines = %d, want %d", retires, len(window))
	}
}

func TestWriteKanataEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteKanata(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "Kanata\t0004\n" {
		t.Errorf("empty window: %q", buf.String())
	}
}
