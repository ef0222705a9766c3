package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	ballerino "repro"
)

// spec is one simulation the benchmark can ask for. Every spec any seed
// can draw has a reference entry in refs.json.
type spec struct {
	Arch      string
	Kernel    string
	Footprint int64
	Width     int
	Ops       int
	DVFS      string
}

func (s spec) key() string {
	return fmt.Sprintf("%s/%s/%d/%d/%d/%s", s.Arch, s.Kernel, s.Footprint, s.Width, s.Ops, s.DVFS)
}

func (s spec) config() ballerino.Config {
	return ballerino.Config{Arch: s.Arch, Workload: s.Kernel, FootprintBytes: s.Footprint,
		Width: s.Width, MaxOps: s.Ops, DVFS: s.DVFS}
}

const (
	kib = 1 << 10
	mib = 1 << 20

	coldOps   = 10_000  // a short ballsim run: kernel build and functional execution dominate
	stallOps  = 20_000  // sweep-stall: the timing loop takes most of the campaign
	busyOps   = 400_000 // sweep-busy: large enough that the loop outweighs three 8 MiB builds
	servedOps = 20_000

	minServedArchs = 9

	// One in bigShare of each kernel's archs also runs at 8 MiB, so that
	// the slow mode holds the 90th percentile well inside it.
	bigShare = 5
)

// standardKernels is the 10-kernel standard suite of ballerino.Kernels.
var standardKernels = []string{"branchy", "compute", "hash-join", "mixed", "pointer-chase",
	"reduction", "sparse-trees", "stencil", "store-load", "stream"}

var (
	stallKernels = []string{"pointer-chase", "store-load", "sparse-trees"}
	busyKernels  = []string{"compute", "branchy", "mixed"}
	// servedFootprints: jobs start at 256 KiB; 1 MiB is the "new footprint"
	// miss of the served mix.
	servedFootprints = []int64{256 * kib, 1 * mib}
	// Widths and operating points are timing-only knobs: jobs that differ
	// only in them share a trace but not a durable-store result.
	servedWidths = []int{2, 4, 8, 10}
	servedDVFS   = []string{"L1", "L2", "L3", "L4"}
)

// loopDominated lists the (kernel, arch) pairs whose timing loop took at
// least 45% of a cold 10k-μop run at 256 KiB in either of two calibration
// passes on a 2-core x86-64 host. cold-run and served keep them out: those
// workloads measure the cold path and the serving stack, and the sweeps
// already cover the loop-heavy kernels.
var loopDominated = map[string][]string{
	"pointer-chase": nil, // every arch
	"mixed":         {"OoO", "OoO-oldest", "CES+MDA", "CASINO", "FXA", "Ballerino", "Ballerino-12", "Ballerino-step1", "Ballerino-step2", "Ballerino-ideal"},
	"hash-join":     {"OoO-oldest", "CASINO"},
	"reduction":     {"OoO", "OoO-oldest", "FXA"},
	"sparse-trees":  {"OoO-oldest", "CASINO"},
	"stencil":       {"OoO-oldest"},
	"store-load":    {"OoO-oldest"},
	"stream":        {"OoO-oldest"},
}

// coldArchs returns the archs whose cold run of kernel is not dominated by
// the timing loop, in Architectures order.
func coldArchs(kernel string) []string {
	ex, listed := loopDominated[kernel]
	if listed && ex == nil {
		return nil
	}
	var out []string
	for _, a := range ballerino.Architectures() {
		if !slices.Contains(ex, a) {
			out = append(out, a)
		}
	}
	return out
}

func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x62616c6c)) }

// coldSpecs draws one cold-run pass: every allowed (arch, kernel) pair once
// at 256 KiB, plus one in bigShare of each kernel's archs again at 8 MiB,
// spread evenly over its arch list. The seed picks the order of the calls;
// every seed measures the same set of runs, so that seeds differ only in
// order and not in how much work a pass holds.
func coldSpecs(seed uint64) []spec {
	var out []spec
	for _, k := range standardKernels {
		archs := coldArchs(k)
		for _, a := range archs {
			out = append(out, spec{a, k, 256 * kib, 8, coldOps, "L4"})
		}
		big := (len(archs) + bigShare - 1) / bigShare
		for j := 0; j < big; j++ {
			out = append(out, spec{archs[j*len(archs)/big], k, 8 * mib, 8, coldOps, "L4"})
		}
	}
	r := newRand(seed)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sweepSpecs is the fixed grid of one sweep campaign: every arch over each
// kernel at the default 8 MiB footprint, kernel-major as cmd/sweep orders it.
func sweepSpecs(kernels []string, ops int) []spec {
	var out []spec
	for _, k := range kernels {
		for _, a := range ballerino.Architectures() {
			out = append(out, spec{a, k, 8 * mib, 8, ops, "L4"})
		}
	}
	return out
}

// Served mix. Kernels come round-robin in seeded order, so every kernel
// has the same number of jobs whatever the seed. A kernel's first job asks
// for the first of servedFootprints, and every footprintStep jobs later it
// asks for the next one, staggered across kernels: those are the
// trace-cache misses. One job in repeatOdds repeats an earlier job of the
// same kernel (a durable-store hit); the rest reuse a footprint the kernel
// has run at, with an arch, width and operating point no earlier job used
// (a trace-cache hit).
const (
	servedJobs    = 480
	repeatOdds    = 5 // one job in repeatOdds repeats an earlier one
	footprintStep = 24
)

type servedJob struct {
	spec spec
	due  float64 // seconds after the loop starts
}

// servedKernels are the kernels the served mix draws: those with at least
// minServedArchs archs whose cold run the timing loop does not dominate,
// enough that reuses never run out of new specs.
func servedKernels() []string {
	var out []string
	for _, k := range standardKernels {
		if len(coldArchs(k)) >= minServedArchs {
			out = append(out, k)
		}
	}
	return out
}

// servedSpecs draws the served job list and its due times: a Poisson
// process at rate jobs/s conditioned on its count, i.e. sorted uniform
// times over servedJobs/rate seconds, so that every seed's schedule spans
// the same time.
func servedSpecs(seed uint64, rate float64) []servedJob {
	r := newRand(seed)
	kernels := servedKernels()
	fps := map[string][]int64{} // footprints each kernel has run at
	used := map[string]bool{}
	var jobs []servedJob
	// fresh picks an arch, width and operating point no earlier job used
	// for (kernel, fp), so that the job is a trace-cache hit but not a store
	// hit. It takes the kernel's least-used arch, then its least-used width,
	// so that every seed simulates close to the same arch and width mix.
	uses := map[string]int{}
	fresh := func(kernel string, fp int64) spec {
		var c []spec
		best := [2]int{math.MaxInt, math.MaxInt}
		for _, a := range coldArchs(kernel) {
			for _, w := range servedWidths {
				for _, l := range servedDVFS {
					s := spec{a, kernel, fp, w, servedOps, l}
					rank := [2]int{uses[kernel+"/"+a], uses[fmt.Sprint(kernel, "/", w)]}
					switch {
					case used[s.key()] || rank[0] > best[0] || (rank[0] == best[0] && rank[1] > best[1]):
					case rank != best:
						best, c = rank, []spec{s}
					default:
						c = append(c, s)
					}
				}
			}
		}
		s := c[r.IntN(len(c))]
		uses[kernel+"/"+s.Arch]++
		uses[fmt.Sprint(kernel, "/", s.Width)]++
		return s
	}
	var order []string
	seen := map[string]int{}    // jobs per kernel so far
	stagger := map[string]int{} // offset of the kernel's footprint steps
	for i := 0; i < servedJobs; i++ {
		if len(order) == 0 {
			order = slices.Clone(kernels)
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			if i == 0 {
				for j, k := range order {
					stagger[k] = j * footprintStep / len(order)
				}
			}
		}
		k := order[0]
		order = order[1:]
		n := seen[k]
		seen[k]++
		step := 0 // which footprint job n asks for first, if any
		if n > 0 {
			step = (n - stagger[k]) / footprintStep
		}
		var s spec
		switch {
		case step == len(fps[k]) && step < len(servedFootprints):
			fp := servedFootprints[step]
			fps[k] = append(fps[k], fp)
			s = fresh(k, fp)
		case i%repeatOdds == repeatOdds-1:
			var same []spec
			for _, j := range jobs {
				if j.spec.Kernel == k {
					same = append(same, j.spec)
				}
			}
			s = same[r.IntN(len(same))]
		default:
			s = fresh(k, fps[k][n%len(fps[k])]) // the kernel's footprints in turn
		}
		used[s.key()] = true
		jobs = append(jobs, servedJob{spec: s})
	}
	span := float64(servedJobs) / rate
	dues := make([]float64, len(jobs))
	for i := range dues {
		dues[i] = r.Float64() * span
	}
	slices.Sort(dues)
	dues[0] = 0
	for i := range jobs {
		jobs[i].due = dues[i]
	}
	return jobs
}

// allSpecs is every spec any seed can draw: the reference table's domain.
func allSpecs() []spec {
	out := coldSpecs(0)
	for _, k := range servedKernels() {
		for _, a := range coldArchs(k) {
			for _, fp := range servedFootprints {
				for _, w := range servedWidths {
					for _, l := range servedDVFS {
						out = append(out, spec{a, k, fp, w, servedOps, l})
					}
				}
			}
		}
	}
	out = append(out, sweepSpecs(stallKernels, stallOps)...)
	out = append(out, sweepSpecs(busyKernels, busyOps)...)
	seen := map[string]bool{}
	return slices.DeleteFunc(out, func(s spec) bool {
		dup := seen[s.key()]
		seen[s.key()] = true
		return dup
	})
}
