package pipeline_test

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/workload"
)

// hotLoopArchs covers every scheduler implementation (and the OoO
// oldest-first selection variant, whose issue loop takes a different path).
var hotLoopArchs = []config.Arch{
	config.ArchInO,
	config.ArchOoO,
	config.ArchOoOOldest,
	config.ArchCESMDA,
	config.ArchCASINO,
	config.ArchFXA,
	config.ArchBallerino,
	config.ArchBallerinoIdeal,
}

func hotLoopTrace(t testing.TB, wl string, ops int) []isa.DynInst {
	t.Helper()
	w, err := workload.ByName(wl, workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return prog.MustExecute(w.Program, ops).Ops
}

// steadyCases are the zero-allocation workloads. The mixed kernel
// exercises loads, stores, branches, violations and flush recovery —
// every recycling path; pointer-chase stalls on nearly every cycle, so
// its slices run mostly through the event-horizon skip path.
var steadyCases = []struct {
	wl                 string
	total, warm, slice uint64
}{
	{"mixed", 400_000, 50_000, 5_000},
	{"pointer-chase", 40_000, 10_000, 1_000},
}

// steadyAllocs warms pl past the steady-state water mark (arenas grown to
// the workload's peak, ring buffers and scratch structs at full size) and
// returns the average allocations of a further commit slice. A slice of
// a skippy workload must actually skip.
func steadyAllocs(t *testing.T, pl *pipeline.Pipeline, wl string, warm, slice uint64) float64 {
	t.Helper()
	if _, err := pl.Run(warm); err != nil {
		t.Fatal(err)
	}
	target := pl.Stats().Committed
	skipped := pl.SkippedCycles()
	avg := testing.AllocsPerRun(10, func() {
		target += slice
		if _, err := pl.Run(target); err != nil {
			t.Fatal(err)
		}
	})
	if wl == "pointer-chase" && pl.SkippedCycles() == skipped {
		t.Errorf("%s: no cycle skipped while measuring", wl)
	}
	return avg
}

// TestSteadyStateAllocs proves the zero-allocation contract of the cycle
// engine: once the pipeline is warmed, simulating additional μops must not
// allocate at all.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is not worth it in -short")
	}
	traces := make([][]isa.DynInst, len(steadyCases))
	for i, c := range steadyCases {
		traces[i] = hotLoopTrace(t, c.wl, int(c.total))
	}
	for _, arch := range hotLoopArchs {
		t.Run(string(arch), func(t *testing.T) {
			for i, c := range steadyCases {
				t.Run(c.wl, func(t *testing.T) {
					m := config.MustMachine(arch, 8, config.Options{})
					pl, err := pipeline.New(m.Pipeline, traces[i], m.Factory)
					if err != nil {
						t.Fatal(err)
					}
					if avg := steadyAllocs(t, pl, c.wl, c.warm, c.slice); avg != 0 {
						t.Errorf("%s: %.1f allocs per %d-commit slice in steady state, want 0", arch, avg, c.slice)
					}
				})
			}
		})
	}
}

// BenchmarkHotLoop measures end-to-end simulation throughput per scheduler
// over the tier-1 micro workloads (the bench.DefaultConfigs kernel spread),
// reporting simulated μops per wall-clock second.
func BenchmarkHotLoop(b *testing.B) {
	const ops = 30_000
	wls := []string{"stream", "pointer-chase", "store-load", "branchy"}
	traces := make([][]isa.DynInst, len(wls))
	for i, wl := range wls {
		traces[i] = hotLoopTrace(b, wl, ops)
	}
	for _, arch := range hotLoopArchs {
		b.Run(string(arch), func(b *testing.B) {
			var committed uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, tr := range traces {
					m := config.MustMachine(arch, 8, config.Options{MaxCycles: ops * 100})
					pl, err := pipeline.New(m.Pipeline, tr, m.Factory)
					if err != nil {
						b.Fatal(err)
					}
					st, err := pl.Run(uint64(len(tr)))
					if err != nil {
						b.Fatal(err)
					}
					committed += st.Committed
				}
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(committed)/s, "uops/sec")
			}
		})
	}
}

// BenchmarkHotLoopSteady isolates the per-cycle cost from construction and
// cold-start: one warmed pipeline per scheduler, timed over commit slices.
func BenchmarkHotLoopSteady(b *testing.B) {
	const totalOps = 4_000_000
	tr := hotLoopTrace(b, "mixed", totalOps)
	for _, arch := range hotLoopArchs {
		b.Run(string(arch), func(b *testing.B) {
			m := config.MustMachine(arch, 8, config.Options{})
			pl, err := pipeline.New(m.Pipeline, tr, m.Factory)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pl.Run(50_000); err != nil {
				b.Fatal(err)
			}
			target := pl.Stats().Committed
			before := target
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target += 10_000
				if pl.Stats().Committed+10_000 > totalOps {
					b.StopTimer()
					b.Fatal(fmt.Sprintf("trace exhausted after %d commits; raise totalOps", pl.Stats().Committed))
				}
				if _, err := pl.Run(target); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(pl.Stats().Committed-before)/s, "uops/sec")
			}
		})
	}
}
