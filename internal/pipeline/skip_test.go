package pipeline_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/topdown"
	"repro/internal/workload"
)

// skipMode is one way of attaching the pipeline's optional machinery.
type skipMode struct {
	name    string
	audit   bool
	topdown bool
}

var skipModes = []skipMode{{name: "plain"}, {name: "audit", audit: true}, {name: "topdown", topdown: true}}

// skipRun is everything a run exposes that event-horizon skipping must
// leave untouched.
type skipRun struct {
	digest  []byte
	counts  [topdown.NumCategories]uint64
	over    uint64
	cycle   uint64
	skipped uint64
	err     string
}

// runSkip simulates tr on m with skipping on or off. Audited and
// accounted runs go through a cancellable context, so the skip also has
// to stop at every cancellation poll.
func runSkip(t *testing.T, m *config.Machine, tr []isa.DynInst, mode skipMode, skip bool) skipRun {
	t.Helper()
	p, err := pipeline.New(m.Pipeline, tr, m.Factory)
	if err != nil {
		t.Fatal(err)
	}
	pipeline.SetSkip(p, skip)
	ctx := context.Background()
	if mode.audit {
		p.EnableAudit()
	}
	var td *topdown.Engine
	if mode.topdown {
		td = topdown.New(m.Pipeline.IssueWidth)
		p.AttachTopdown(td)
		p.EnableAudit() // checks conservation on every simulated cycle
	}
	if mode.audit || mode.topdown {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	r := skipRun{}
	if _, err := p.RunContext(ctx, uint64(len(tr))); err != nil {
		r.err = err.Error()
	}
	r.digest = goldenDigest(p, "skip", "skip")
	r.counts, r.over = td.Counts(), td.OverIssue()
	r.cycle, r.skipped = p.Cycle(), p.SkippedCycles()
	return r
}

// compareSkip runs tr both ways and fails on any observable difference.
func compareSkip(t *testing.T, m *config.Machine, tr []isa.DynInst, mode skipMode) skipRun {
	t.Helper()
	off, on := runSkip(t, m, tr, mode, false), runSkip(t, m, tr, mode, true)
	if off.skipped != 0 {
		t.Fatalf("skipping off still skipped %d cycles", off.skipped)
	}
	if !bytes.Equal(off.digest, on.digest) {
		t.Fatalf("digest differs with skipping:\n--- off ---\n%s--- on ---\n%s", off.digest, on.digest)
	}
	if off.counts != on.counts || off.over != on.over {
		t.Fatalf("topdown differs with skipping: off %v (+%d over), on %v (+%d over)", off.counts, off.over, on.counts, on.over)
	}
	if off.cycle != on.cycle || off.err != on.err {
		t.Fatalf("end state differs with skipping: off cycle %d err %q, on cycle %d err %q", off.cycle, off.err, on.cycle, on.err)
	}
	return on
}

// TestSkipDifferential proves event-horizon cycle skipping invisible: every
// architecture runs each trace with skipping off and on — plain, under the
// invariant auditor, and with top-down accounting — and the golden digest,
// the top-down slot counts, the final cycle and any error must be
// identical. The traces are TestFuzzReplayDifferential's random programs
// and the three memory-bound kernels, whose runs are mostly skippable
// stalls; tiny-window and Ballerino-ablation machines add dispatch-stall
// and select-policy variety, and tight MaxCycles/StallCycles budgets must
// trip at the same cycle with the same autopsy.
func TestSkipDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full arch grid twice per trace; skipped in -short")
	}
	// The random programs run TestFuzzReplayDifferential's length; the
	// kernels stall tens of cycles per μop, so fewer μops cover as many
	// cycles.
	const ops, kernelOps = 4000, 2000
	type trace struct {
		name   string
		tr     []isa.DynInst
		skippy bool // most cycles are stalls, so skipping must engage
	}
	var traces []trace
	for _, seed := range []uint64{3, 17, 256, 4093, 70707} {
		w := workload.Random(workload.RandomParams{Seed: seed})
		traces = append(traces, trace{fmt.Sprintf("seed%d", seed), traceOf(t, w, ops), false})
	}
	chase := trace{"pointer-chase", hotLoopTrace(t, "pointer-chase", kernelOps), true}
	traces = append(traces, chase)
	for _, wl := range []string{"store-load", "sparse-trees"} {
		traces = append(traces, trace{wl, hotLoopTrace(t, wl, kernelOps), false})
	}

	for _, arch := range config.AllArchs() {
		arch := arch
		t.Run(string(arch), func(t *testing.T) {
			t.Parallel()
			m := config.MustMachine(arch, 8, config.Options{MaxCycles: 2_000_000})
			for _, tc := range traces {
				for _, mode := range skipModes {
					on := compareSkip(t, m, tc.tr, mode)
					if on.err != "" {
						t.Fatalf("%s/%s: %s", tc.name, mode.name, on.err)
					}
					if tc.skippy && on.skipped*2 < on.cycle {
						t.Errorf("%s/%s: skipped only %d of %d cycles", tc.name, mode.name, on.skipped, on.cycle)
					}
				}
			}

			// Tight budgets trip inside pointer-chase stalls.
			for _, lim := range []struct {
				name       string
				max, stall uint64
			}{{"max-cycles", 12_345, 0}, {"stall-cycles", 0, 150}} {
				mm := config.MustMachine(arch, 8, config.Options{MaxCycles: lim.max})
				mm.Pipeline.StallCycles = lim.stall
				for _, mode := range skipModes {
					if on := compareSkip(t, mm, chase.tr, mode); on.err == "" {
						t.Errorf("%s/%s: run finished, want a deadlock error", lim.name, mode.name)
					}
				}
			}
		})
	}

	t.Run("variants", func(t *testing.T) {
		t.Parallel()
		tiny := func(arch config.Arch) *config.Machine {
			m := config.MustMachine(arch, 8, config.Options{MaxCycles: 2_000_000, NumPIQs: 2, PIQDepth: 4})
			m.Pipeline.ROBSize, m.Pipeline.LQSize, m.Pipeline.SQSize, m.Pipeline.DecodeQueue = 16, 4, 4, 8
			m.Pipeline.Rename.IntRegs = isa.NumIntRegs + 6
			m.Pipeline.Rename.FpRegs = isa.NumFpRegs + 6
			return m
		}
		ablate := func(o core.Options) *config.Machine {
			return config.MustMachine(config.ArchBallerino, 8, config.Options{MaxCycles: 2_000_000, Ballerino: &o})
		}
		machines := map[string]*config.Machine{
			"tiny-Ballerino":  tiny(config.ArchBallerino),
			"tiny-CES":        tiny(config.ArchCES),
			"tiny-FXA":        tiny(config.ArchFXA),
			"tiny-CASINO":     tiny(config.ArchCASINO),
			"siq-first":       ablate(core.Options{MDASteering: true, Sharing: true, SIQFirstSelect: true}),
			"always-switch":   ablate(core.Options{MDASteering: true, Sharing: true, AlwaysSwitchHead: true}),
			"ideal-siq-first": ablate(core.Options{MDASteering: true, IdealSharing: true, SIQFirstSelect: true}),
		}
		for name, m := range machines {
			for _, tc := range []trace{traces[0], chase} {
				for _, mode := range skipModes {
					if on := compareSkip(t, m, tc.tr, mode); on.err != "" {
						t.Fatalf("%s %s/%s: %s", name, tc.name, mode.name, on.err)
					}
				}
			}
		}
	})
}
