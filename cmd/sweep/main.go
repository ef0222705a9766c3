// Command sweep runs a (architecture × width × workload) grid and emits one
// CSV row per simulation — the raw-data exporter for downstream plotting.
//
//	sweep -archs InO,OoO,Ballerino -widths 4,8 -ops 100000 > results.csv
//	sweep -trace traces/ -metrics metrics/    # per-run observability artifacts
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"repro"
	"repro/internal/topdown"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		archs  = flag.String("archs", strings.Join(ballerino.Architectures(), ","), "architectures")
		widths = flag.String("widths", "8", "issue widths")
		wls    = flag.String("workloads", strings.Join(ballerino.Workloads(), ","), "workload kernels")
		ops    = flag.Int("ops", 100_000, "μops per simulation")
		warm   = flag.Int("warmup", 0, "warm-up μops before measurement")
		par    = flag.Int("parallel", runtime.GOMAXPROCS(0), "simulations in flight at once (1 = sequential)")
		td     = flag.Bool("topdown", false, "append per-category top-down slot-fraction columns to every row")

		traceIn = flag.String("trace-in", "", "sweep a recorded ballerino.trace/v1 file instead of generating traces (overrides -workloads/-ops)")

		traceDir   = flag.String("trace", "", "directory for per-run Chrome trace_event JSON files")
		metricsDir = flag.String("metrics", "", "directory for per-run interval-metrics CSV files")
		interval   = flag.Uint64("interval", 0, "heartbeat interval in cycles (0 = 10000)")

		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	for _, dir := range []string{*traceDir, *metricsDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
	}

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	header := []string{
		"arch", "width", "workload", "ops", "cycles", "ipc",
		"mispredict_rate", "violations", "energy_pj", "edp", "efficiency",
	}
	if *td {
		// Stable schema: one fraction column per category, in Category
		// order, prefixed so downstream tools can select them by glob.
		for _, name := range topdown.Names() {
			header = append(header, "td_"+name)
		}
	}
	w.Write(header)

	// With -trace-in the grid collapses to (architecture × width) over the
	// one imported trace: every point replays the identical μop stream, so
	// the sweep isolates pure timing-model differences.
	var imported *ballerino.Trace
	if *traceIn != "" {
		t, err := ballerino.ImportTrace(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		imported = t
		*wls = t.Workload()
	}

	// Build the whole grid up front, then run it as one campaign: traces
	// are shared across architectures and widths, and -parallel bounds the
	// worker pool. Row order matches the old sequential loop exactly.
	var cfgs []ballerino.Config
	for _, arch := range strings.Split(*archs, ",") {
		for _, ws := range strings.Split(*widths, ",") {
			width, err := strconv.Atoi(strings.TrimSpace(ws))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			for _, wl := range strings.Split(*wls, ",") {
				cfg := ballerino.Config{
					Arch:        strings.TrimSpace(arch),
					Width:       width,
					Workload:    strings.TrimSpace(wl),
					MaxOps:      *ops,
					WarmupOps:   *warm,
					ObsInterval: *interval,
					Topdown:     *td,
				}
				if imported != nil {
					cfg = imported.Configure(cfg)
				}
				stem := fmt.Sprintf("%s-w%d-%s", cfg.Arch, cfg.Width, cfg.Workload)
				if *traceDir != "" {
					cfg.TracePath = filepath.Join(*traceDir, stem+".trace.json")
				}
				if *metricsDir != "" {
					cfg.MetricsPath = filepath.Join(*metricsDir, stem+".csv")
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	batch := ballerino.RunAll(ctx, cfgs, ballerino.BatchOptions{Parallelism: *par})
	for _, rr := range batch.Results {
		if rr.Err != nil {
			fmt.Fprintln(os.Stderr, rr.Err)
			return 1
		}
		res := rr.Result
		row := []string{
			res.Arch,
			strconv.Itoa(res.Width),
			res.Workload,
			strconv.FormatUint(res.Committed, 10),
			strconv.FormatUint(res.Cycles, 10),
			fmt.Sprintf("%.4f", res.IPC),
			fmt.Sprintf("%.4f", res.MispredictRate),
			strconv.FormatUint(res.Violations, 10),
			fmt.Sprintf("%.0f", res.EnergyPJ),
			fmt.Sprintf("%.6g", res.EDP),
			fmt.Sprintf("%.6g", res.Efficiency),
		}
		if *td && res.Topdown != nil {
			for _, name := range topdown.Names() {
				row = append(row, fmt.Sprintf("%.6f", res.Topdown.Fractions[name]))
			}
		}
		w.Write(row)
	}
	return 0
}
