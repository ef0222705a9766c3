package main

import (
	"context"
	"fmt"
	"math"
	"time"

	ballerino "repro"
	"repro/internal/span"
)

// runCold is a closed loop with one client: sequential RunContext calls,
// each building its kernel and trace from scratch as a ballsim run does.
// It repeats whole passes while they fit in the time budget.
func runCold(o options) (*report, error) {
	specs := coldSpecs(o.seed)
	r := &report{note: "passes"}
	if o.traced {
		r.lay = newLayers(1)
	}
	start := time.Now()
	for pass := 0; another(start, pass, 1, o.seconds); pass++ {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t := time.Now()
		var outside time.Duration // benchmark-side calls of the traced pass
		var uops float64
		for i, s := range specs {
			if r.lay != nil {
				u, d, err := r.lay.coldOp(fmt.Sprintf("cold-%d-%d", pass, i), s, o.refs, r)
				if err != nil {
					return nil, err
				}
				uops += u
				outside += d
				continue
			}
			t0 := time.Now()
			res, err := ballerino.RunContext(context.Background(), s.config())
			uops += r.add(o.refs, s, secs(time.Since(t0)), res, err)
		}
		wall := secs(time.Since(t) - outside)
		if err := r.addRound(wall, uops); err != nil {
			return nil, err
		}
		if l := r.lay; l != nil {
			l.wall += wall
		}
	}
	return r, nil
}

// add records one run's outcome and returns its committed μops when the
// run was right.
func (r *report) add(refs map[string]ref, s spec, lat float64, res *ballerino.Result, err error) float64 {
	oc := outcome{spec: s, latency: lat, err: err}
	if err == nil {
		oc.obs = observe(res.Manifest)
		oc.err = verify(refs, s, oc.obs)
	}
	r.outcomes = append(r.outcomes, oc)
	if oc.err != nil {
		r.outcomes[len(r.outcomes)-1].latency = math.NaN()
		return 0
	}
	return float64(oc.obs.Committed)
}

// coldOp is one cold run of the traced pass. It is split in two calls on a
// fresh TraceCache, Prepare and RunContext on the prepared trace, so that
// the program's own spans separate the trace build (cache.lookup, with
// trace.generate inside) from RunContext's self time and sim.run. The
// benchmark-side build and execution for the workload and prog layers come
// after the run; coldOp returns the run's μops and the time of those calls,
// which the caller keeps out of its wall.
func (l *layers) coldOp(id string, s spec, refs map[string]ref, r *report) (float64, time.Duration, error) {
	root := l.start(id, "cold.op", s)
	ctx := span.ContextWith(context.Background(), root)
	t0 := time.Now()
	cfg := s.config()
	tr, err := ballerino.NewTraceCache(0).Prepare(ctx, cfg)
	var res *ballerino.Result
	t1 := time.Now()
	if err == nil {
		cfg.Trace = tr
		res, err = ballerino.RunContext(ctx, cfg)
	}
	t2 := time.Now()
	uops := r.add(refs, s, secs(t2.Sub(t0)), res, err)
	if err == nil {
		tree := l.tracer.Tree(id)
		sim := spanSecs(tree, "sim.run")
		l.addRun(s, sim, observe(res.Manifest))
		l.rcSelf += secs(t2.Sub(t1)) - sim
		l.jobBusy += secs(t2.Sub(t0))
	}
	d, err := l.direct(root, s)
	root.End()
	return uops, d, err
}
