package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	ballerino "repro"
	"repro/internal/prog"
	"repro/internal/span"
	"repro/internal/workload"
)

// call is one benchmark-side call into a layer.
type call struct {
	dur, allocMiB float64
	uops          int
}

// layers accumulates a traced pass's per-layer numbers. The program's own
// spans (trace.generate, sim.run, cache.lookup and the served job
// lifecycle) come from internal/span; workload.ByName and
// prog.ExecuteContext are timed by the benchmark around direct calls,
// which split kernel build from functional execution.
type layers struct {
	workers int
	wall    float64 // Σ traced round walls, benchmark-side calls excluded

	tracer *span.Tracer
	ids    []string     // traces recorded by tracer, in order
	served []*span.Tree // per-job trees read back from the server

	builds, execs []call

	simRun, cycles             map[string]float64 // by arch
	committed, issued, slots   float64
	rcSelf, jobBusy, cacheWait float64

	cacheHits, cacheMisses, cacheJoins, cacheMiB float64

	submit, queueWait, attempt, walAppend, resultStore, late []float64
	jobs, storeHits, shed, sloMiss                           float64
	telemetrySelf, jobstoreBusy                              float64
}

func newLayers(workers int) *layers {
	return &layers{workers: workers, tracer: span.NewTracer(-1),
		simRun: map[string]float64{}, cycles: map[string]float64{}}
}

func (l *layers) start(id, name string, s spec) *span.Span {
	l.ids = append(l.ids, id)
	sp := l.tracer.Start(id, name)
	if s.Arch != "" {
		sp.SetAttr("spec", s.key())
	}
	return sp
}

func allocMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / mib
}

// direct builds and executes s's kernel outside the program, under parent,
// and returns the time it took, which the caller keeps out of its wall.
func (l *layers) direct(parent *span.Span, s spec) (time.Duration, error) {
	t0, a0 := time.Now(), allocMiB()
	w, err := workload.ByName(s.Kernel, workload.Params{Footprint: s.Footprint})
	t1 := time.Now()
	parent.ChildAt("workload.ByName", t0).EndAt(t1)
	a1 := allocMiB()
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	tr, err := prog.ExecuteContext(context.Background(), w.Program, s.Ops)
	t3 := time.Now()
	parent.ChildAt("prog.ExecuteContext", t2).EndAt(t3)
	if err != nil && !errors.Is(err, prog.ErrFuel) {
		return 0, err
	}
	l.builds = append(l.builds, call{dur: secs(t1.Sub(t0)), allocMiB: a1 - a0})
	l.execs = append(l.execs, call{dur: secs(t3.Sub(t2)), allocMiB: allocMiB() - a1, uops: len(tr.Ops)})
	return time.Since(t0), nil
}

// spanSecs sums the durations of the spans of tree named name.
func spanSecs(tree *span.Tree, name string) float64 {
	t := 0.0
	for _, v := range tree.Spans {
		if v.Name == name {
			t += secs(v.Duration())
		}
	}
	return t
}

// childSecs sums the durations of the children of id named name.
func childSecs(tree *span.Tree, id span.ID, name string) float64 {
	t := 0.0
	for _, v := range tree.Children(id) {
		if v.Name == name {
			t += secs(v.Duration())
		}
	}
	return t
}

// addRun folds one simulation into the pipeline layer.
func (l *layers) addRun(s spec, simRun float64, o observed) {
	l.simRun[s.Arch] += simRun
	l.cycles[s.Arch] += float64(o.Cycles)
	l.committed += float64(o.Committed)
	l.issued += float64(o.Issued)
	l.slots += float64(s.Width) * float64(o.Cycles)
}

// addCampaign folds one traced RunAll campaign into the layers.
func (l *layers) addCampaign(id string, b *ballerino.Batch, specs []spec) {
	tree := l.tracer.Tree(id)
	sim := map[string]float64{}
	for _, v := range tree.Spans {
		switch v.Name {
		case "sim.run":
			sim[v.Attr("arch")+"/"+v.Attr("workload")] += secs(v.Duration())
		case "cache.lookup":
			l.jobBusy += secs(v.Duration())
			if v.Attr("outcome") == "join" {
				l.cacheWait += secs(v.Duration())
			}
		}
	}
	for i, rr := range b.Results {
		if rr.Err != nil {
			continue
		}
		s := specs[i]
		run := sim[s.Arch+"/"+s.Kernel]
		l.addRun(s, run, observe(rr.Result.Manifest))
		l.rcSelf += rr.Result.Manifest.WallSeconds - run
		l.jobBusy += rr.Result.Manifest.WallSeconds
	}
	l.cacheHits += float64(b.Cache.Hits)
	l.cacheMisses += float64(b.Cache.Misses)
	l.cacheJoins += float64(b.Cache.Joins)
	l.cacheMiB = max(l.cacheMiB, float64(b.Cache.BytesUsed)/mib)
}

// addJob folds one served job's lifecycle spans into the layers; wallSec
// is RunContext's host time from the job's manifest (0 for a store hit).
func (l *layers) addJob(tree *span.Tree, s spec, o observed, wallSec float64) {
	l.served = append(l.served, tree)
	for _, v := range tree.Spans {
		d := secs(v.Duration())
		switch v.Name {
		case "submit":
			l.telemetrySelf += d - childSecs(tree, v.ID, "wal.append")
		case "queue.wait":
			l.queueWait = append(l.queueWait, d)
		case "attempt":
			l.attempt = append(l.attempt, d)
			l.jobBusy += d
			l.telemetrySelf += d - childSecs(tree, v.ID, "wal.append") - childSecs(tree, v.ID, "cache.lookup") - wallSec
		case "cache.lookup":
			if v.Attr("outcome") == "join" {
				l.cacheWait += d
			}
		case "sim.run":
			l.addRun(s, d, o)
			l.rcSelf += wallSec - d
		case "wal.append":
			l.walAppend = append(l.walAppend, d)
			l.jobstoreBusy += d
		case "result.store":
			l.resultStore = append(l.resultStore, d)
			l.jobstoreBusy += d - childSecs(tree, v.ID, "wal.append")
		}
	}
}

func callSums(cs []call) (n, dur, alloc, uops float64, durs []float64) {
	for _, c := range cs {
		dur += c.dur
		alloc += c.allocMiB
		uops += float64(c.uops)
		durs = append(durs, c.dur)
	}
	return float64(len(cs)), dur, alloc, uops, durs
}

// ratio returns a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerShares is the order the share report lists layers in.
var layerShares = []string{"workload", "prog", "pipeline", "ballerino", "campaign", "telemetry", "jobstore", "other"}

// perLayer derives every per-layer metric from a traced pass; plain is the
// untraced pass of the same run, for the tracing overhead. A layer the
// workload does not exercise reads 0.
func perLayer(plain, traced *report) metrics {
	l := traced.lay
	m := metrics{}
	pct := func(name string, xs []float64, q float64, unit string, scale float64) {
		if len(xs) == 0 {
			m.set(name, 0, unit, "not exercised")
			return
		}
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x * scale
		}
		if q == 0.5 {
			m.set(name, median(scaled), unit, fmt.Sprintf("n=%d", len(xs)))
		} else {
			m.setTail(name, scaled, q, unit)
		}
	}

	n, busy, alloc, _, durs := callSums(l.builds)
	m.set("workload.calls", n, "count", "benchmark-side workload.ByName calls")
	m.set("workload.busy_s", busy, "s", "")
	pct("workload.p50_ms", durs, 0.5, "ms", 1e3)
	m.set("workload.alloc_mib", alloc, "MiB", "TotalAlloc delta")

	n, busyProg, allocProg, uops, _ := callSums(l.execs)
	m.set("prog.calls", n, "count", "benchmark-side prog.ExecuteContext calls")
	m.set("prog.busy_s", busyProg, "s", "")
	m.set("prog.uops", uops, "count", "")
	m.set("prog.uops_per_s", ratio(uops, busyProg), "uop/s", "")
	m.set("prog.alloc_mib", allocProg, "MiB", "TotalAlloc delta")

	var simBusy, cycles float64
	archs := ballerino.Architectures()
	for _, a := range archs {
		simBusy += l.simRun[a]
		cycles += l.cycles[a]
		m.set("pipeline.ns_per_cycle."+sanitize(a), 1e9*ratio(l.simRun[a], l.cycles[a]), "ns", "")
	}
	m.set("pipeline.busy_s", simBusy, "s", "sim.run spans")
	m.set("pipeline.sim_cycles", cycles, "count", "simulated")
	m.set("pipeline.ns_per_cycle", 1e9*ratio(simBusy, cycles), "ns", "")
	m.set("pipeline.ns_per_uop", 1e9*ratio(simBusy, l.committed), "ns", "")
	m.set("pipeline.issue_slot_util", ratio(l.issued, l.slots), "ratio", "simulated issued / (width × cycles)")

	m.set("ballerino.self_s", l.rcSelf, "s", "RunContext on a prepared trace, minus sim.run")

	host := float64(l.workers) * l.wall
	m.set("campaign.cache_hits", l.cacheHits, "count", "")
	m.set("campaign.cache_misses", l.cacheMisses, "count", "")
	m.set("campaign.cache_joins", l.cacheJoins, "count", "")
	m.set("campaign.cache_wait_s", l.cacheWait, "s", "joined cache.lookup spans")
	m.set("campaign.cache_mib", l.cacheMiB, "MiB", "largest resident trace bytes")
	m.set("campaign.worker_busy_ratio", ratio(l.jobBusy, host), "ratio", fmt.Sprintf("Σ job time / (%d workers × wall)", l.workers))

	pct("telemetry.submit_p50_s", l.submit, 0.5, "s", 1)
	pct("telemetry.queue_wait_p50_s", l.queueWait, 0.5, "s", 1)
	pct("telemetry.queue_wait_p90_s", l.queueWait, 0.9, "s", 1)
	pct("telemetry.attempt_p50_s", l.attempt, 0.5, "s", 1)
	m.set("telemetry.store_hit_ratio", ratio(l.storeHits, l.jobs), "ratio", fmt.Sprintf("%.0f of %.0f jobs", l.storeHits, l.jobs))
	m.set("telemetry.shed", l.shed, "count", "")
	m.set("telemetry.self_s", l.telemetrySelf, "s", "submit and attempt spans minus their children")
	m.set("jobstore.busy_s", l.jobstoreBusy, "s", "wal.append and result.store spans")
	m.set("jobstore.wal_appends", float64(len(l.walAppend)), "count", "")
	pct("jobstore.wal_append_p50_s", l.walAppend, 0.5, "s", 1)
	pct("jobstore.result_store_p50_s", l.resultStore, 0.5, "s", 1)
	pct("loadgen.late_p90_s", l.late, 0.9, "s", 1)
	m.set("slo_miss_ratio", l.sloMiss, "ratio", fmt.Sprintf("served p90 limit %.3f s", sloLimit.Seconds()))
	m.set("fail_ratio", ratio(float64(traced.failed()), float64(len(traced.outcomes))), "ratio", "traced pass")

	var plainWalls, tracedWalls []float64
	for _, r := range plain.rounds {
		plainWalls = append(plainWalls, r.wall)
	}
	for _, r := range traced.rounds {
		tracedWalls = append(tracedWalls, r.wall)
	}
	over := median(tracedWalls) - median(plainWalls)
	m.set("trace.overhead_s", over, "s", "traced minus untraced wall_s")
	m.set("trace.overhead_ratio", ratio(over, median(plainWalls)), "ratio", "")

	shares := map[string]float64{
		"workload":  busy,
		"prog":      busyProg,
		"pipeline":  simBusy,
		"ballerino": l.rcSelf,
		"campaign":  l.cacheWait,
		"telemetry": l.telemetrySelf,
		"jobstore":  l.jobstoreBusy,
	}
	rest := host
	for _, v := range shares {
		rest -= v
	}
	shares["other"] = rest
	for _, k := range layerShares {
		m.set("share."+k, ratio(shares[k], host), "ratio", "of workers × wall")
	}
	return m
}

func printShares(m metrics) {
	var parts []string
	for _, k := range layerShares {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*m["share."+k].Value))
	}
	fmt.Println("layer shares of host time:", strings.Join(parts, ", "))
}

// writeSpans writes every span tree of the traced pass to a JSON file under
// the build directory and returns its path.
func writeSpans(name string, seed uint64, l *layers) (string, error) {
	dir := filepath.Join(buildDir(), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trees := append([]*span.Tree(nil), l.served...)
	for _, id := range l.ids {
		trees = append(trees, l.tracer.Tree(id))
	}
	b, err := json.Marshal(trees)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	return path, os.WriteFile(path, b, 0o644)
}

// buildDir is where the benchmark keeps what it writes: the build
// directory the runner script uses.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
