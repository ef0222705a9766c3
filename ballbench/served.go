package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobstore"
	"repro/internal/span"
	"repro/internal/telemetry"
)

const (
	// servedRate is about half of the 2-worker capacity of the served mix on
	// a 2-core host: at this rate the workers are busy about 40% of the
	// time, and the backlog first grows at about 35 jobs/s.
	servedRate = 16.0
	// sloLimit is the latency limit on each served job, timed from when it
	// was due; slo_miss_ratio is the share of jobs over it.
	sloLimit = 200 * time.Millisecond
	// drainTimeout bounds the wait for the last job to finish.
	drainTimeout = 120 * time.Second
)

// servedState is one running server: a durable store in a fresh directory,
// the worker pool, and an HTTP listener on the loopback interface.
type servedState struct {
	dir    string
	srv    *telemetry.Server
	hs     *http.Server
	serve  chan error
	base   string
	client *http.Client
}

// servedUp opens a durable store in a fresh directory, starts a server on
// it with workers workers and serves its handler on a loopback port,
// returning once /readyz answers.
func servedUp(traced bool) (*servedState, error) {
	tmp := filepath.Join(buildDir(), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "served-")
	if err != nil {
		return nil, err
	}
	store, err := jobstore.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var tracer *span.Tracer
	if traced {
		tracer = span.NewTracer(-1)
	}
	srv, err := telemetry.NewServer(telemetry.Options{Workers: workers, Store: store, Tracer: tracer})
	if err != nil {
		store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	st := &servedState{dir: dir, srv: srv,
		hs: &http.Server{Handler: srv.Handler()}, serve: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers}}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.serve <- nil
		st.down()
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	go func() { st.serve <- st.hs.Serve(ln) }()
	if _, err := st.get("/readyz"); err != nil {
		st.down()
		return nil, err
	}
	return st, nil
}

// down stops the listener, drains the server and removes its store.
func (st *servedState) down() {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	st.hs.Shutdown(ctx)
	<-st.serve
	st.client.CloseIdleConnections()
	if err := st.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "served: shutdown:", err)
	}
	os.RemoveAll(st.dir)
}

func (st *servedState) get(path string) ([]byte, error) {
	resp, err := st.client.Get(st.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body, nil
}

func getJSON[T any](st *servedState, path string) (T, error) {
	var v T
	body, err := st.get(path)
	if err != nil {
		return v, err
	}
	return v, json.Unmarshal(body, &v)
}

var errShed = errors.New("shed by admission control")

// submit posts one job and returns its ID.
func (st *servedState) submit(s spec) (int, error) {
	body, err := json.Marshal(telemetry.JobSpec{Arch: s.Arch, Workload: s.Kernel, Width: s.Width,
		Ops: s.Ops, FootprintBytes: s.Footprint, DVFS: s.DVFS})
	if err != nil {
		return 0, err
	}
	resp, err := st.client.Post(st.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		var v telemetry.JobView
		return v.ID, json.Unmarshal(raw, &v)
	case http.StatusTooManyRequests:
		return 0, errShed
	}
	return 0, fmt.Errorf("POST /jobs: %s: %s", resp.Status, raw)
}

func terminal(s telemetry.JobState) bool {
	switch s {
	case telemetry.JobDone, telemetry.JobFailed, telemetry.JobParked, telemetry.JobCancelled:
		return true
	}
	return false
}

// drain polls the job list until every job has reached a terminal state.
func (st *servedState) drain() error {
	deadline := time.Now().Add(drainTimeout)
	for {
		views, err := getJSON[[]telemetry.JobView](st, "/jobs")
		if err != nil {
			return err
		}
		pending := 0
		for _, v := range views {
			if !terminal(v.State) {
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("served: %d jobs still pending after %s", pending, drainTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scrape reads counters from /metrics.
func (st *servedState) scrape(names ...string) (map[string]float64, error) {
	body, err := st.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		for _, n := range names {
			if len(f) == 2 && f[0] == n {
				if out[n], err = strconv.ParseFloat(f[1], 64); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, sc.Err()
}

// sent is one posted job.
type sent struct {
	id        int
	due       time.Time
	late, rtt float64 // seconds behind schedule when posted; POST round trip
	err       error   // errShed when admission control refused the job
}

// openLoop posts each job when it is due, counted from start, whatever
// the server's backlog.
func (st *servedState) openLoop(jobs []servedJob, start time.Time) ([]sent, error) {
	sends := make([]sent, len(jobs))
	for i, j := range jobs {
		due := start.Add(time.Duration(j.due * float64(time.Second)))
		time.Sleep(time.Until(due))
		t := time.Now()
		id, err := st.submit(j.spec)
		if err != nil && !errors.Is(err, errShed) {
			return nil, err
		}
		sends[i] = sent{id: id, due: due, late: secs(t.Sub(due)), rtt: secs(time.Since(t)), err: err}
	}
	return sends, nil
}

// latency is a served job's latency, timed from when it was due rather
// than when it was posted, so that a stalled generator's delay counts.
func latency(due time.Time, v telemetry.JobView) (float64, error) {
	finished, err := time.Parse(time.RFC3339Nano, v.FinishedAt)
	if err != nil {
		return 0, fmt.Errorf("job %d finished_at: %w", v.ID, err)
	}
	return secs(finished.Sub(due)), nil
}

// runServed is an open loop: jobs arrive on a seeded Poisson schedule and
// are posted to an in-process telemetry server over HTTP, whatever the
// server's backlog. Each job is timed from when it was due.
func runServed(o options) (*report, error) {
	jobs := servedSpecs(o.seed, servedRate)
	st, err := servedUp(o.traced)
	if err != nil {
		return nil, err
	}
	defer st.down()
	r := &report{note: "open loops"}
	var l *layers
	if o.traced {
		l = newLayers(workers)
		r.lay = l
		// Build and execute each kernel the server will miss on, to split
		// its trace-cache misses into kernel build and execution.
		root := l.start("served-direct", "served.direct", spec{})
		seen := map[string]bool{}
		for _, j := range jobs {
			k := fmt.Sprintf("%s/%d", j.spec.Kernel, j.spec.Footprint)
			if !seen[k] {
				seen[k] = true
				if _, err := l.direct(root, j.spec); err != nil {
					return nil, err
				}
			}
		}
		root.End()
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	start := time.Now().Add(10 * time.Millisecond)
	sends, err := st.openLoop(jobs, start)
	if err != nil {
		return nil, err
	}
	if err := st.drain(); err != nil {
		return nil, err
	}
	if l != nil {
		for _, sd := range sends {
			l.late = append(l.late, sd.late)
			l.submit = append(l.submit, sd.rtt)
		}
	}

	var end, uops, misses float64
	for i, sd := range sends {
		j := jobs[i]
		oc := outcome{spec: j.spec, latency: math.NaN(), err: sd.err}
		var v telemetry.JobView
		if sd.err == nil {
			if v, err = getJSON[telemetry.JobView](st, fmt.Sprintf("/jobs/%d", sd.id)); err != nil {
				return nil, err
			}
			lat, err := latency(sd.due, v)
			switch {
			case v.State != telemetry.JobDone || v.Manifest == nil:
				oc.err = fmt.Errorf("job %d (%s): %s %s", sd.id, j.spec.key(), v.State, v.Error)
			case err != nil:
				oc.err = err
			default:
				oc.obs = observe(v.Manifest)
				oc.err = verify(o.refs, j.spec, oc.obs)
				oc.latency = lat
				end = max(end, secs(sd.due.Sub(start))+lat)
				if !v.FromStore {
					uops += float64(oc.obs.Committed)
				}
			}
		}
		if oc.err != nil || oc.latency > sloLimit.Seconds() {
			misses++
		}
		r.outcomes = append(r.outcomes, oc)
		if l != nil {
			l.jobs++
			switch {
			case errors.Is(sd.err, errShed):
				l.shed++
			case v.FromStore:
				l.storeHits++
			}
			if sd.err == nil {
				tree, err := getJSON[*span.Tree](st, fmt.Sprintf("/jobs/%d/spans", sd.id))
				if err != nil {
					return nil, err
				}
				wall := 0.0
				if v.Manifest != nil && !v.FromStore {
					wall = v.Manifest.WallSeconds
				}
				l.addJob(tree, j.spec, oc.obs, wall)
			}
		}
	}
	r.sloMiss = misses / float64(len(sends))
	if err := r.addRound(end, uops); err != nil {
		return nil, err
	}
	if l != nil {
		l.wall = r.rounds[0].wall
		l.sloMiss = r.sloMiss
		c, err := st.scrape("ballserved_trace_cache_hits_total", "ballserved_trace_cache_misses_total",
			"ballserved_trace_cache_joins_total", "ballserved_trace_cache_bytes")
		if err != nil {
			return nil, err
		}
		l.cacheHits = c["ballserved_trace_cache_hits_total"]
		l.cacheMisses = c["ballserved_trace_cache_misses_total"]
		l.cacheJoins = c["ballserved_trace_cache_joins_total"]
		l.cacheMiB = c["ballserved_trace_cache_bytes"] / mib
	}
	return r, nil
}
