// Retry policy.
//
// Failed attempts are retried with capped exponential backoff plus
// jitter, following the tiered failure-queue bookkeeping reviewed in the
// tsuku snippets: each failure moves the job one tier back (longer
// wait), and a job that exhausts its retry budget is parked in the
// dead-letter tier instead of looping forever. The jitter comes from a
// fixed-seed source, so a run replays the exact same backoff schedule.
package telemetry

import (
	"math/rand"
	"sync"
	"time"
)

// Default backoff shape: 250ms, 500ms, 1s, ... capped at 15s, each step
// jittered to 50–100% of its nominal value to decorrelate retry storms.
const (
	defaultRetryBase = 250 * time.Millisecond
	defaultRetryCap  = 15 * time.Second
)

// retrier computes jittered backoff delays. One per server; safe for
// concurrent use.
type retrier struct {
	base time.Duration
	cap  time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

func newRetrier(base, cap time.Duration) *retrier {
	if base <= 0 {
		base = defaultRetryBase
	}
	if cap <= 0 {
		cap = defaultRetryCap
	}
	return &retrier{base: base, cap: cap, rng: rand.New(rand.NewSource(1))}
}

// backoff returns the jittered delay before retry number `failure`
// (1-based: the delay after the first failed attempt is backoff(1)).
func (r *retrier) backoff(failure int) time.Duration {
	d := r.base
	for i := 1; i < failure && d < r.cap; i++ {
		d *= 2
	}
	if d > r.cap {
		d = r.cap
	}
	// Jitter into [d/2, d]: full jitter would allow near-zero waits, which
	// defeats the point of backing off a struggling dependency.
	half := d / 2
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(half) + 1))
	r.mu.Unlock()
	return half + j
}
