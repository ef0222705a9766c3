package main

import (
	"context"
	"fmt"
	"math"
	"time"

	ballerino "repro"
	"repro/internal/span"
)

// minCampaigns is the fewest campaigns a sweep runs, so that its 36-run
// campaigns give the per-run latency percentiles ≥100 samples.
const minCampaigns = 3

// runSweep runs one RunAll campaign of every arch over kernels at the
// default footprint, on a pool of workers with the batch's shared trace
// cache, repeating it while it fits in the time budget. Each campaign
// starts cold.
func runSweep(o options, kernels []string, ops int) (*report, error) {
	specs := sweepSpecs(kernels, ops)
	cfgs := make([]ballerino.Config, len(specs))
	for i, s := range specs {
		cfgs[i] = s.config()
	}
	r := &report{note: "campaigns"}
	if o.traced {
		r.lay = newLayers(workers)
	}
	start := time.Now()
	for c := 0; another(start, c, minCampaigns, o.seconds); c++ {
		ctx := context.Background()
		var root *span.Span
		if l := r.lay; l != nil {
			root = l.start(fmt.Sprintf("campaign-%d", c), "campaign", spec{})
			for _, k := range kernels {
				if _, err := l.direct(root, spec{Kernel: k, Footprint: 8 * mib, Ops: ops}); err != nil {
					return nil, err
				}
			}
			ctx = span.ContextWith(ctx, root)
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		t := time.Now()
		b := ballerino.RunAll(ctx, cfgs, ballerino.BatchOptions{Parallelism: workers})
		wall := time.Since(t)
		root.End()
		var uops float64
		for i, rr := range b.Results {
			lat := math.NaN()
			if rr.Err == nil {
				// Per-run latency inside a campaign is the run's own host time
				// as its manifest records it: RunAll exposes no per-run hook.
				lat = rr.Result.Manifest.WallSeconds
			}
			uops += r.add(o.refs, specs[i], lat, rr.Result, rr.Err)
		}
		if err := r.addRound(secs(wall), uops); err != nil {
			return nil, err
		}
		if l := r.lay; l != nil {
			l.addCampaign(root.TraceID(), b, specs)
			l.wall += secs(wall)
		}
	}
	return r, nil
}
