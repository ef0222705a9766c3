package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the fewest samples that must lie beyond a tail percentile
// for it to be reported.
const minBeyond = 10

// rank returns the nearest-rank index of quantile q in n sorted samples and
// how many samples lie beyond it.
func rank(n int, q float64) (idx, beyond int) {
	r := int(math.Ceil(q*float64(n) - 1e-9)) // q*n may round up past an integer
	if r < 1 {
		r = 1
	}
	return r - 1, n - r
}

// quantile returns the nearest-rank q-quantile of xs (false when xs is empty).
func quantile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i, _ := rank(len(s), q)
	return s[i], true
}

// tail returns the q-quantile only when at least minBeyond samples lie
// beyond it, so a tail percentile is never read off a handful of samples.
func tail(xs []float64, q float64) (float64, bool) {
	if _, beyond := rank(len(xs), q); beyond < minBeyond {
		return 0, false
	}
	return quantile(xs, q)
}

func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// geomean of the positive values in xs (0 when there are none).
func geomean(xs []float64) float64 {
	logs, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			logs += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}

func secs(d time.Duration) float64 { return d.Seconds() }

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unsafeRune = regexp.MustCompile(`[^A-Za-z0-9_.-]`)
)

// sanitize turns an arch name into a metric-name component ("CES+MDA" →
// "CES-MDA").
func sanitize(s string) string { return unsafeRune.ReplaceAllString(s, "-") }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string  // sample count or caveat, for the human-readable report
}

// metrics is one run's named metrics, built by set so every name is
// checked once, where it is made.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit, note string) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("invalid metric name %q", name))
	}
	m[name] = metric{Value: v, Unit: unit, note: note}
}

// setTail sets a tail percentile when tail allows it; otherwise the metric
// stays absent and the note in the report says why.
func (m metrics) setTail(name string, xs []float64, q float64, unit string) {
	if v, ok := tail(xs, q); ok {
		_, beyond := rank(len(xs), q)
		m.set(name, v, unit, fmt.Sprintf("n=%d, %d beyond", len(xs), beyond))
	}
}

// cpuTicks reads the host's steal and total CPU ticks from /proc/stat. On a
// virtual machine, steal is time a neighbour took from this one; a run with
// much of it reads slow for reasons outside the program.
func cpuTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // user … steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// resetPeakRSS restarts the process's resident-memory high-water mark, so
// that peakRSSMiB reads the peak since this call.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's resident-memory high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
