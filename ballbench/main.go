// Command ballbench is the repository's end-to-end benchmark. It runs one
// named workload against the simulator's public entry points, checks every
// simulated result against refs.json, and prints its metrics; the last
// line of standard output is one JSON object. See README.md. From the
// repository root:
//
//	bash ballbench/run.sh --workload cold-run --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	ballerino "repro"
)

// workers is the parallelism of the campaigns and of the served pool,
// sized for a 2-core host.
const workers = 2

// setupRepeats is how many times each run measures set-up; setup_s is the
// median.
const setupRepeats = 5

// outcome is one operation: a simulation run or a served job.
type outcome struct {
	spec    spec
	latency float64 // seconds; absent (NaN) for failed operations
	obs     observed
	err     error
}

// round is one timed unit: a cold-run pass, a sweep campaign, or the
// served open loop.
type round struct {
	wall float64 // host seconds
	uops float64 // committed simulated μops
	rss  float64 // peak resident MiB during the round
}

type report struct {
	setup    []float64
	rounds   []round
	outcomes []outcome
	sloMiss  float64 // served only
	lay      *layers // traced passes only
	note     string  // what one round is, for the report
}

// addRound records a round that began with resetPeakRSS.
func (r *report) addRound(wall, uops float64) error {
	rss, err := peakRSSMiB()
	r.rounds = append(r.rounds, round{wall: wall, uops: uops, rss: rss})
	return err
}

func (r *report) failed() int {
	n := 0
	for _, o := range r.outcomes {
		if o.err != nil {
			n++
		}
	}
	return n
}

// options is what a workload runner receives from the command line.
type options struct {
	refs    map[string]ref
	seed    uint64
	seconds float64
	traced  bool
}

type workloadFunc func(options) (*report, error)

var workloads = map[string]workloadFunc{
	"cold-run":    runCold,
	"sweep-stall": func(o options) (*report, error) { return runSweep(o, stallKernels, stallOps) },
	"sweep-busy":  func(o options) (*report, error) { return runSweep(o, busyKernels, busyOps) },
	"served":      runServed,
}

// measureSetup times setupRepeats set-ups of workload name, each in a
// fresh process: from starting the process until it reports the program
// ready for the first timed operation. A fresh process pays every one-time
// cost (package initialisation, catalogues built on first use), so work
// moved into set-up shows.
func measureSetup(name string) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(self, "--setup-child", "--workload", name)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up child said %q (%v)", line, rerr)
		}
		ds = append(ds, secs(d))
	}
	return ds, nil
}

// setupChild is the set-up measureSetup times: the simulator's catalogue,
// and for served a durable store and a running server. It prints "ready"
// once set up, then tears down.
func setupChild(name string) error {
	if len(ballerino.Architectures()) == 0 || len(ballerino.Kernels()) == 0 {
		return fmt.Errorf("empty simulator catalogue")
	}
	if name != "served" {
		fmt.Println("ready")
		return nil
	}
	st, err := servedUp(false)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	st.down()
	return nil
}

// another reports whether a run that began at start and has timed done
// rounds should time one more: always below least, and otherwise only when
// a round of the average length so far still fits in the budget.
func another(start time.Time, done, least int, budget float64) bool {
	if done < least {
		return true
	}
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(done) <= budget
}

// endToEnd derives the user-visible metrics of an untraced pass.
func endToEnd(r *report) metrics {
	m := metrics{}
	var walls, rates, rss, lat, ipc, epu []float64
	for _, rd := range r.rounds {
		walls = append(walls, rd.wall)
		rates = append(rates, rd.uops/rd.wall)
		rss = append(rss, rd.rss)
	}
	for _, o := range r.outcomes {
		if o.err != nil {
			continue
		}
		lat = append(lat, o.latency)
		ipc = append(ipc, o.obs.IPC)
		epu = append(epu, o.obs.EnergyPJ/float64(o.obs.Committed))
	}
	m.set("setup_s", median(r.setup), "s", fmt.Sprintf("median of %d set-ups", len(r.setup)))
	m.set("wall_s", median(walls), "s", fmt.Sprintf("median of %d %s", len(walls), r.note))
	m.set("sim_uops_per_s", median(rates), "uop/s", fmt.Sprintf("median of %d %s", len(rates), r.note))
	m.set("latency_p50_s", median(lat), "s", fmt.Sprintf("n=%d", len(lat)))
	m.setTail("latency_p90_s", lat, 0.9, "s")
	m.set("peak_rss_mib", median(rss), "MiB", fmt.Sprintf("median of %d %s' VmHWM", len(rss), r.note))
	m.set("ipc_geomean", geomean(ipc), "ipc", fmt.Sprintf("simulated, n=%d", len(ipc)))
	m.set("energy_pj_per_uop", geomean(epu), "pJ", fmt.Sprintf("simulated, n=%d", len(epu)))
	return m
}

func printMetrics(title string, m metrics) {
	fmt.Println(title)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", n, v.Value, v.Unit)
		if v.note != "" {
			line += "  (" + v.note + ")"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

func main() {
	name := flag.String("workload", "", "workload: cold-run, sweep-stall, sweep-busy or served")
	seed := flag.Uint64("seed", 1, "workload seed: drives spec picks, arrival times and the served mix")
	seconds := flag.Float64("seconds", 30, "measure for about this long (each workload has a minimum)")
	trace := flag.Int("trace", 0, "1: add a traced pass and print the per-layer metrics")
	refsOut := flag.String("write-refs", "", "record the reference table to this file and exit")
	child := flag.Bool("setup-child", false, "internal: the set-up process measureSetup times")
	flag.Parse()
	var err error
	switch {
	case *child:
		err = setupChild(*name)
	case *refsOut != "":
		err = writeRefs(*refsOut)
	default:
		err = run(*name, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ballbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	setup, err := measureSetup(name)
	if err != nil {
		return err
	}
	opts := options{refs: refs, seed: seed, seconds: seconds}
	steal0, total0, err := cpuTicks()
	if err != nil {
		return err
	}
	plain, err := wl(opts)
	if err != nil {
		return err
	}
	plain.setup = setup
	steal1, total1, err := cpuTicks()
	if err != nil {
		return err
	}
	e2e := endToEnd(plain)
	attempted, failed := len(plain.outcomes), plain.failed()
	fmt.Printf("workload %s, seed %d\n", name, seed)
	printMetrics("end-to-end metrics (untraced):", e2e)
	fmt.Printf("  %-34s %14.6g ratio   (%d of %d operations)\n", "fail_ratio", float64(failed)/float64(attempted), failed, attempted)
	if name == "served" {
		fmt.Printf("  %-34s %14.6g ratio   (p90 limit %.3f s)\n", "slo_miss_ratio", plain.sloMiss, sloLimit.Seconds())
	}
	fmt.Printf("host CPU steal during the untraced pass: %.1f%%\n", 100*ratio(steal1-steal0, total1-total0))
	out, passes := e2e, []*report{plain}
	if trace == 1 {
		// The traced pass times the minimum number of rounds, so that its
		// counts compare between commits.
		opts.traced, opts.seconds = true, 0
		traced, err := wl(opts)
		if err != nil {
			return err
		}
		passes = append(passes, traced)
		attempted += len(traced.outcomes)
		failed += traced.failed()
		out = perLayer(plain, traced)
		printMetrics("per-layer metrics (traced pass):", out)
		printShares(out)
		path, err := writeSpans(name, seed, traced.lay)
		if err != nil {
			return err
		}
		fmt.Println("spans written to", path)
	}
	for _, r := range passes {
		for _, o := range r.outcomes {
			if o.err != nil {
				fmt.Fprintln(os.Stderr, "failed:", o.err)
			}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
