package workload

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

const testOps = 20000

func opMix(t *testing.T, w Workload) map[isa.Op]int {
	t.Helper()
	tr := prog.MustExecute(w.Program, testOps)
	if len(tr.Ops) < testOps/2 {
		t.Fatalf("%s: trace too short: %d ops", w.Name, len(tr.Ops))
	}
	mix := make(map[isa.Op]int)
	for _, d := range tr.Ops {
		mix[d.Op]++
	}
	return mix
}

func TestAllKernelsExecute(t *testing.T) {
	for _, w := range All(Params{}) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			tr := prog.MustExecute(w.Program, testOps)
			if len(tr.Ops) == 0 {
				t.Fatal("empty trace")
			}
			// Every op must have a sane PC and operands.
			for _, d := range tr.Ops {
				if d.PC < 0 || d.PC >= len(w.Program.Insts) {
					t.Fatalf("op %v: bad PC", d)
				}
				if d.Op.IsMem() && d.Addr == 0 {
					t.Fatalf("op %v: memory op with nil address", d)
				}
			}
		})
	}
}

func TestAllReturnsSortedUniqueNames(t *testing.T) {
	ws := All(Params{})
	if len(ws) < 9 {
		t.Fatalf("expected at least 9 kernels, got %d", len(ws))
	}
	seen := map[string]bool{}
	for i, w := range ws {
		if seen[w.Name] {
			t.Errorf("duplicate kernel name %q", w.Name)
		}
		seen[w.Name] = true
		if i > 0 && ws[i-1].Name >= w.Name {
			t.Errorf("kernels not sorted: %q >= %q", ws[i-1].Name, w.Name)
		}
		if w.Kind == "" || w.Emulate == "" {
			t.Errorf("kernel %q missing metadata", w.Name)
		}
	}
}

// TestByName: every catalogue name builds exactly what its own entry's
// constructor builds, at two footprints, and carries the entry's
// metadata; an unknown name is an error.
func TestByName(t *testing.T) {
	for _, k := range Catalogue {
		for _, p := range []Params{{Footprint: 1 << 16}, {Footprint: 1 << 20}} {
			w, err := ByName(k.Name, p)
			if err != nil {
				t.Fatalf("ByName(%q): %v", k.Name, err)
			}
			if want := k.New(p); !reflect.DeepEqual(w, want) {
				t.Errorf("ByName(%q, %+v) differs from the entry's constructor", k.Name, p)
			}
			if w.Name != k.Name || w.Kind != k.Kind || w.Emulate != k.Emulate {
				t.Errorf("%q: built metadata {%q %q %q} differs from the catalogue entry {%q %q %q}",
					k.Name, w.Name, w.Kind, w.Emulate, k.Name, k.Kind, k.Emulate)
			}
		}
	}
	if _, err := ByName("nope", Params{}); err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
}

// TestByNameBuildsOnlyOne: ByName builds the one kernel asked for, so a
// small kernel costs a small allocation even at a large footprint.
func TestByNameBuildsOnlyOne(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ByName("compute", Params{Footprint: 8 << 20}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("ByName(compute, 8 MiB) allocated %d bytes, want under 1 MiB", d)
	}
}

func TestPointerChaseIsSerial(t *testing.T) {
	// Property: consecutive chase loads form a serial dependence chain —
	// each pointer load's base register was written by the previous
	// pointer load.
	w := PointerChase(Params{Footprint: 1 << 20})
	tr := prog.MustExecute(w.Program, testOps)
	var chaseLoads int
	for _, d := range tr.Ops {
		// The chase load is "load r1, [r1+0]": dst == base.
		if d.IsLoad() && d.Dst == d.Src1 {
			chaseLoads++
		}
	}
	if chaseLoads < 1000 {
		t.Errorf("found %d serialising loads, expected many", chaseLoads)
	}
	// And the visited addresses should be highly irregular: count distinct
	// 64-byte lines in a window; a streaming pattern would repeat lines.
	lines := map[uint64]bool{}
	for _, d := range tr.Ops {
		if d.IsLoad() && d.Dst == d.Src1 {
			lines[d.Addr>>6] = true
		}
	}
	if len(lines) < chaseLoads*9/10 {
		t.Errorf("pointer chase revisits lines: %d lines for %d loads", len(lines), chaseLoads)
	}
}

func TestStreamIsSequential(t *testing.T) {
	w := Stream(Params{Footprint: 1 << 20})
	tr := prog.MustExecute(w.Program, testOps)
	// Loads from the same static PC should advance by a constant stride
	// (the unroll factor × 8 bytes).
	lastAddr := map[int]uint64{}
	strides := map[int]uint64{}
	violations := 0
	for _, d := range tr.Ops {
		if !d.IsLoad() {
			continue
		}
		if prev, ok := lastAddr[d.PC]; ok && d.Addr > prev {
			stride := d.Addr - prev
			if s, ok := strides[d.PC]; !ok {
				strides[d.PC] = stride
			} else if s != stride {
				violations++
			}
		}
		lastAddr[d.PC] = d.Addr
	}
	if violations > 0 {
		t.Errorf("%d non-constant-stride steps in stream kernel", violations)
	}
}

func TestStoreLoadHasMemoryDependences(t *testing.T) {
	w := StoreLoad(Params{})
	tr := prog.MustExecute(w.Program, testOps)
	// Property: a large fraction of loads read an address stored by a
	// recent older store (store→load distance ≤ 8 μops).
	recent := make(map[uint64]uint64) // addr → store seq
	var deps, loads int
	for _, d := range tr.Ops {
		if d.IsStore() {
			recent[d.Addr] = d.Seq
		}
		if d.IsLoad() {
			loads++
			if s, ok := recent[d.Addr]; ok && d.Seq-s <= 8 {
				deps++
			}
		}
	}
	// Half the loads are table gathers; the other half are the
	// communication loads, which must all be M-dependent.
	if loads == 0 || deps*3 < loads {
		t.Errorf("M-dependent loads = %d of %d, want ≥ a third", deps, loads)
	}
}

func TestBranchyHasHardBranches(t *testing.T) {
	w := Branchy(Params{})
	tr := prog.MustExecute(w.Program, testOps)
	// Find the conditional branch PC with the most balanced outcome.
	taken := map[int]int{}
	total := map[int]int{}
	for _, d := range tr.Ops {
		if d.IsBranch() && d.Cond != isa.BrAlways {
			total[d.PC]++
			if d.Taken {
				taken[d.PC]++
			}
		}
	}
	// The hash-driven branch is biased ~75/25 — predictable in neither
	// direction (mispredict rate ≈ the minority fraction).
	hard := false
	for pc, n := range total {
		if n < 500 {
			continue
		}
		ratio := float64(taken[pc]) / float64(n)
		if ratio > 0.55 && ratio < 0.9 {
			hard = true
		}
	}
	if !hard {
		t.Error("branchy kernel has no biased-but-random data-dependent branch")
	}
}

func TestKernelOpMixes(t *testing.T) {
	// Coarse sanity on instruction class fractions per kernel.
	cases := []struct {
		w           Workload
		minLoadFrac float64
		maxLoadFrac float64
		wantsFP     bool
		wantsStores bool
	}{
		{PointerChase(Params{Footprint: 1 << 20}), 0.25, 0.6, false, false},
		{Stream(Params{Footprint: 1 << 20}), 0.1, 0.35, true, true},
		{Compute(Params{}), 0.1, 0.35, true, false},
		{HashJoin(Params{Footprint: 1 << 20}), 0.05, 0.3, false, true},
		{Reduction(Params{}), 0.2, 0.45, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.w.Name, func(t *testing.T) {
			mix := opMix(t, tc.w)
			var total int
			for _, n := range mix {
				total += n
			}
			loadFrac := float64(mix[isa.OpLoad]) / float64(total)
			if loadFrac < tc.minLoadFrac || loadFrac > tc.maxLoadFrac {
				t.Errorf("load fraction = %.2f, want [%.2f, %.2f]", loadFrac, tc.minLoadFrac, tc.maxLoadFrac)
			}
			fp := mix[isa.OpFpAdd] + mix[isa.OpFpMul] + mix[isa.OpFpDiv]
			if tc.wantsFP && fp == 0 {
				t.Error("expected FP μops")
			}
			if tc.wantsStores && mix[isa.OpStore] == 0 {
				t.Error("expected stores")
			}
		})
	}
}

func TestMixedHasPhases(t *testing.T) {
	w := Mixed(Params{Footprint: 1 << 20})
	tr := prog.MustExecute(w.Program, 60000)
	// Detect at least two distinct phases: a window dominated by loads+stores
	// and a window with no memory ops at all (the FP burst).
	const win = 256
	var sawMemPhase, sawComputePhase bool
	for i := 0; i+win <= len(tr.Ops); i += win {
		var mem int
		for _, d := range tr.Ops[i : i+win] {
			if d.Op.IsMem() {
				mem++
			}
		}
		if mem >= win/4 {
			sawMemPhase = true
		}
		if mem == 0 {
			sawComputePhase = true
		}
	}
	if !sawMemPhase || !sawComputePhase {
		t.Errorf("phases not detected: mem=%v compute=%v", sawMemPhase, sawComputePhase)
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Footprint != DefaultParams.Footprint || p.Iterations != DefaultParams.Iterations {
		t.Errorf("withDefaults = %+v", p)
	}
	q := Params{Footprint: 123, Iterations: 7}.withDefaults()
	if q.Footprint != 123 || q.Iterations != 7 {
		t.Errorf("withDefaults clobbered explicit values: %+v", q)
	}
}
