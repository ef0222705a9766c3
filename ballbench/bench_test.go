package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	ballerino "repro"
	"repro/internal/telemetry"
)

func TestTailNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n      int
		ok     bool
		want   float64
		beyond int
	}{
		{n: 9}, {n: 99}, {n: 100, ok: true, want: 90, beyond: 10}, {n: 110, ok: true, want: 99, beyond: 11},
	} {
		v, ok := tail(xs(c.n), 0.9)
		if ok != c.ok || v != c.want {
			t.Errorf("tail(%d samples) = %v, %v; want %v, %v", c.n, v, ok, c.want, c.ok)
		}
		if _, beyond := rank(c.n, 0.9); c.ok && beyond != c.beyond {
			t.Errorf("%d samples: %d beyond p90, want %d", c.n, beyond, c.beyond)
		}
		m := metrics{}
		m.setTail("latency_p90_s", xs(c.n), 0.9, "s")
		if _, present := m["latency_p90_s"]; present != c.ok {
			t.Errorf("%d samples: p90 reported = %v, want %v", c.n, present, c.ok)
		}
	}
}

// syntheticPasses builds an untraced and a traced pass with enough
// operations for every percentile.
func syntheticPasses() (plain, traced *report) {
	plain = &report{setup: []float64{0.01}, note: "passes"}
	for i := 0; i < 120; i++ {
		plain.outcomes = append(plain.outcomes, outcome{latency: float64(i + 1),
			obs: observed{Cycles: 100, Committed: 50, Issued: 60, EnergyPJ: 5000, IPC: 0.5}})
	}
	plain.rounds = []round{{wall: 3, uops: 6000, rss: 100}}
	traced = &report{rounds: []round{{wall: 3.1}}, lay: newLayers(1)}
	traced.lay.wall = 3.1
	return plain, traced
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	plain, traced := syntheticPasses()
	check := func(kind string, got metrics, want []struct{ Name, Unit string }) {
		var names []string
		for _, w := range want {
			names = append(names, w.Name)
			m, ok := got[w.Name]
			switch {
			case !ok:
				t.Errorf("%s: BENCHMARK.json lists %s, the benchmark does not report it", kind, w.Name)
			case m.Unit != w.Unit:
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", kind, w.Name, m.Unit, w.Unit)
			}
		}
		for n := range got {
			if !metricName.MatchString(n) {
				t.Errorf("%s: invalid metric name %q", kind, n)
			}
			if !slices.Contains(names, n) {
				t.Errorf("%s: the benchmark reports %s, BENCHMARK.json does not list it", kind, n)
			}
		}
	}
	check("end_to_end", endToEnd(plain), spec.EndToEnd)
	check("per_layer", perLayer(plain, traced), spec.PerLayer)
}

func TestArchNamesSanitized(t *testing.T) {
	if got := sanitize("CES+MDA"); got != "CES-MDA" {
		t.Errorf(`sanitize("CES+MDA") = %q`, got)
	}
	plain, traced := syntheticPasses()
	m := perLayer(plain, traced)
	for _, a := range ballerino.Architectures() {
		n := "pipeline.ns_per_cycle." + sanitize(a)
		if _, ok := m[n]; !ok || !metricName.MatchString(n) {
			t.Errorf("arch %s: metric %q missing or invalid", a, n)
		}
	}
}

func TestPerturbedReferenceFails(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	s := coldSpecs(1)[0]
	res, err := ballerino.RunContext(context.Background(), s.config())
	if err != nil {
		t.Fatal(err)
	}
	r := &report{}
	r.add(refs, s, 0.1, res, nil)
	if r.failed() != 0 {
		t.Fatalf("run disagrees with the recorded reference: %v", r.outcomes[0].err)
	}
	perturbed := map[string]ref{}
	for k, v := range refs {
		perturbed[k] = v
	}
	want := refs[s.key()]
	want.Cycles++
	perturbed[s.key()] = want
	r.add(perturbed, s, 0.1, res, nil)
	if got := float64(r.failed()) / float64(len(r.outcomes)); got != 0.5 {
		t.Errorf("fail ratio with one perturbed reference = %v, want 0.5", got)
	}
	if !math.IsNaN(r.outcomes[1].latency) {
		t.Errorf("a wrong run kept its latency sample")
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	st, err := servedUp(false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.down()
	// Every job is due at once, so the generator falls behind: each job
	// after the first is posted late, and that wait must count.
	jobs := servedSpecs(1, servedRate)[:8]
	for i := range jobs {
		jobs[i].due = 0
	}
	start := time.Now()
	sends, err := st.openLoop(jobs, start)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.drain(); err != nil {
		t.Fatal(err)
	}
	for i, sd := range sends {
		if !sd.due.Equal(start) {
			t.Fatalf("job %d due %v, want %v", i, sd.due, start)
		}
		v, err := getJSON[telemetry.JobView](st, fmt.Sprintf("/jobs/%d", sd.id))
		if err != nil {
			t.Fatal(err)
		}
		lat, err := latency(sd.due, v)
		if err != nil {
			t.Fatal(err)
		}
		submitted, _ := time.Parse(time.RFC3339Nano, v.SubmittedAt)
		finished, _ := time.Parse(time.RFC3339Nano, v.FinishedAt)
		if want := secs(finished.Sub(start)); lat != want {
			t.Errorf("job %d: latency %v, want finish − due = %v", i, lat, want)
		}
		if served := secs(finished.Sub(submitted)); lat < served+sd.late {
			t.Errorf("job %d: latency %v misses the %v s it waited to be sent (server-side %v)", i, lat, sd.late, served)
		}
		if i > 0 && sd.late <= 0 {
			t.Errorf("job %d was not late, so the test shows nothing", i)
		}
	}
}
