package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/span"
)

// getSpans fetches one job's span tree in the requested format, returning
// the status code and raw body.
func getSpans(t *testing.T, url string, id int, format string) (int, []byte) {
	t.Helper()
	u := fmt.Sprintf("%s/jobs/%d/spans", url, id)
	if format != "" {
		u += "?format=" + format
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// checkTreeWellFormed asserts the structural invariants every finished
// job's span tree must satisfy: exactly one root named "job", every
// parent reference resolves, every span is closed with start ≤ end, and
// no child starts before its parent.
func checkTreeWellFormed(t *testing.T, tree *span.Tree) {
	t.Helper()
	if tree == nil || len(tree.Spans) == 0 {
		t.Fatal("empty span tree")
	}
	byID := map[span.ID]span.View{}
	roots := 0
	for _, v := range tree.Spans {
		byID[v.ID] = v
	}
	for _, v := range tree.Spans {
		if v.Parent == 0 {
			roots++
			if v.Name != "job" {
				t.Errorf("root span named %q, want \"job\"", v.Name)
			}
		} else if _, ok := byID[v.Parent]; !ok {
			t.Errorf("span %d (%s) has dangling parent %d", v.ID, v.Name, v.Parent)
		}
		if v.Open {
			t.Errorf("span %d (%s) still open in a terminal job's trace", v.ID, v.Name)
			continue
		}
		if v.End.Before(v.Start) {
			t.Errorf("span %d (%s) ends %s before it starts %s", v.ID, v.Name, v.End, v.Start)
		}
		if p, ok := byID[v.Parent]; ok && v.Start.Before(p.Start) {
			t.Errorf("span %d (%s) starts before its parent %s", v.ID, v.Name, p.Name)
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d roots, want 1", roots)
	}
}

// countSpans returns how many spans in the tree carry the given name.
func countSpans(tree *span.Tree, name string) int {
	n := 0
	for _, v := range tree.Spans {
		if v.Name == name {
			n++
		}
	}
	return n
}

// TestLifecycleSpansWellFormedUnderChaos drives a 4-worker server whose
// first three attempts fail by injection and retry, and
// checks every finished job's span tree: well-formed, one attempt span
// per started attempt, a backoff span per retry, and a closed queue.wait
// preceding each attempt.
func TestLifecycleSpansWellFormedUnderChaos(t *testing.T) {
	s, ts := newFailingTestServer(t, Options{
		Workers:        4,
		MaxRetries:     3,
		RetryBaseDelay: 5 * time.Millisecond,
		Tracer:         span.NewTracer(0),
	}, failFirst(3))
	const jobs = 6
	views := make([]JobView, 0, jobs)
	for i := 0; i < jobs; i++ {
		views = append(views, submitJob(t, ts, JobSpec{
			Arch: "Ballerino", Workload: "store-load", Ops: 8_000 + i,
		}))
	}
	totalAttempts, totalBackoffs := 0, 0
	for _, v := range views {
		job := waitForState(t, s, v.ID, JobDone)
		tree := s.tracer.Tree(v.TraceID)
		checkTreeWellFormed(t, tree)
		attempts := countSpans(tree, "attempt")
		if got := job.Attempts(); attempts != got {
			t.Errorf("job %d: %d attempt spans, %d attempts started", v.ID, attempts, got)
		}
		backoffs := countSpans(tree, "backoff")
		if backoffs != attempts-1 {
			t.Errorf("job %d: %d backoff spans for %d attempts", v.ID, backoffs, attempts)
		}
		if n := countSpans(tree, "queue.wait"); n != attempts {
			t.Errorf("job %d: %d queue.wait spans for %d attempts", v.ID, n, attempts)
		}
		if n := countSpans(tree, "submit"); n != 1 {
			t.Errorf("job %d: %d submit spans", v.ID, n)
		}
		if n := countSpans(tree, "result.store"); n != 1 {
			t.Errorf("job %d: %d result.store spans", v.ID, n)
		}
		totalAttempts += attempts
		totalBackoffs += backoffs
	}
	if totalAttempts != jobs+3 {
		t.Errorf("chaos failn=3: %d attempts across %d jobs, want %d", totalAttempts, jobs, jobs+3)
	}
	if totalBackoffs != 3 {
		t.Errorf("chaos failn=3: %d backoff spans, want 3", totalBackoffs)
	}
}

// TestSpansEndpointFormats exercises GET /jobs/{id}/spans in all three
// renderings plus its error paths.
func TestSpansEndpointFormats(t *testing.T) {
	s, ts := newDurableTestServer(t, Options{
		Store:  openStore(t, t.TempDir()),
		Tracer: span.NewTracer(0),
	})
	v := submitJob(t, ts, JobSpec{Arch: "Ballerino", Workload: "store-load", Ops: 10_000})
	waitForState(t, s, v.ID, JobDone)
	if v.TraceID == "" {
		t.Fatal("submit response has no trace_id")
	}

	code, body := getSpans(t, ts.URL, v.ID, "")
	if code != http.StatusOK {
		t.Fatalf("json spans: status %d: %s", code, body)
	}
	var tree span.Tree
	if err := json.Unmarshal(body, &tree); err != nil {
		t.Fatalf("json spans: %v", err)
	}
	if tree.TraceID != v.TraceID {
		t.Errorf("tree trace_id %q, want %q", tree.TraceID, v.TraceID)
	}
	checkTreeWellFormed(t, &tree)
	// The simulation internals must have recorded themselves as children
	// of the attempt through the context-threaded span.
	for _, name := range []string{"cache.lookup", "trace.generate", "sim.run", "wal.append"} {
		if countSpans(&tree, name) == 0 {
			t.Errorf("trace missing %q span", name)
		}
	}

	code, body = getSpans(t, ts.URL, v.ID, "text")
	if code != http.StatusOK || !strings.HasPrefix(string(body), "trace "+v.TraceID) {
		t.Fatalf("text spans: status %d, body %q", code, body[:min(len(body), 80)])
	}

	code, body = getSpans(t, ts.URL, v.ID, "chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome spans: status %d", code)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Fatalf("chrome spans: %v (%d events)", err, len(chrome.TraceEvents))
	}

	if code, _ = getSpans(t, ts.URL, v.ID, "bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus format: status %d, want 400", code)
	}
	if code, _ = getSpans(t, ts.URL, 999, ""); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

// TestSpansEndpointTracingOff: without a tracer the endpoint 404s rather
// than serving an empty tree.
func TestSpansEndpointTracingOff(t *testing.T) {
	s, ts := newTestServer(t)
	v := submitJob(t, ts, JobSpec{Arch: "Ballerino", Workload: "store-load", Ops: 10_000})
	waitForState(t, s, v.ID, JobDone)
	if code, body := getSpans(t, ts.URL, v.ID, ""); code != http.StatusNotFound {
		t.Fatalf("tracing off: status %d, body %s", code, body)
	}
}

// TestMetricsLatencyHistograms: the lifecycle histograms appear on
// /metrics with exemplar trace IDs on populated buckets, and the
// exposition still parses for an exemplar-unaware scraper.
func TestMetricsLatencyHistograms(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableTestServer(t, Options{
		Store:  openStore(t, dir),
		Tracer: span.NewTracer(0),
	})
	v := submitJob(t, ts, JobSpec{Arch: "Ballerino", Workload: "store-load", Ops: 10_000})
	waitForState(t, s, v.ID, JobDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, name := range []string{
		"ballserved_queue_wait_seconds", "ballserved_job_attempt_seconds",
		"ballserved_job_e2e_seconds", "ballserved_wal_fsync_seconds",
		"ballserved_replay_duration_seconds", "ballserved_queue_depth_at_submit",
	} {
		if !strings.Contains(text, "# TYPE "+name+" histogram") {
			t.Errorf("/metrics missing histogram %s", name)
		}
	}
	if want := ` # {trace_id="` + v.TraceID + `"}`; !strings.Contains(text, want) {
		t.Errorf("/metrics has no exemplar carrying trace %s", v.TraceID)
	}

	// The plain scraper (which strips exemplars) must still parse every
	// line and see one observation in each lifecycle histogram.
	m := scrape(t, ts)
	for _, name := range []string{
		"ballserved_queue_wait_seconds_count", "ballserved_job_attempt_seconds_count",
		"ballserved_job_e2e_seconds_count", "ballserved_queue_depth_at_submit_count",
	} {
		if m[name] != 1 {
			t.Errorf("%s = %v, want 1", name, m[name])
		}
	}
	if m["ballserved_wal_fsync_seconds_count"] < 3 {
		t.Errorf("fsync histogram count = %v, want >= 3 (submitted/started/completed)",
			m["ballserved_wal_fsync_seconds_count"])
	}
	if m["ballserved_stream_dropped_total"] != 0 {
		t.Errorf("stream drops = %v with no subscribers", m["ballserved_stream_dropped_total"])
	}
}

// TestHubDropAccounting: a subscriber that never drains starts dropping
// frames once its buffer fills; the hub counts every drop and warns once
// per client with its ID.
func TestHubDropAccounting(t *testing.T) {
	var logBuf bytes.Buffer
	h := newHub(slog.New(slog.NewTextHandler(&logBuf, nil)))
	ch, cancel := h.subscribe()
	defer cancel()
	const extra = 10
	for i := 0; i < subBuffer+extra; i++ {
		h.publish("interval", map[string]int{"i": i})
	}
	if got := h.drops(); got != extra {
		t.Errorf("drops = %d, want %d", got, extra)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "client=1") {
		t.Errorf("drop warning missing client ID: %q", logged)
	}
	if n := strings.Count(logged, "falling behind"); n != 1 {
		t.Errorf("drop warning logged %d times, want once", n)
	}
	// The subscriber still holds the first subBuffer frames intact.
	if len(ch) != subBuffer {
		t.Errorf("subscriber buffer holds %d frames, want %d", len(ch), subBuffer)
	}
}
