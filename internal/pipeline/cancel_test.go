package pipeline_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/sched"
)

// loopProgram builds an unbounded counting loop — enough dynamic μops for
// any cancellation test.
func loopProgram() *prog.Program {
	b := prog.NewBuilder("cancel-loop")
	b.MovImm(isa.R(1), 0)
	top := b.NewLabel()
	b.Bind(top)
	b.AddImm(isa.R(1), isa.R(1), 1)
	b.AddImm(isa.R(2), isa.R(1), 3)
	b.Jmp(top)
	return b.Build()
}

func cancelPipeline(t *testing.T, ops int) *pipeline.Pipeline {
	t.Helper()
	m := config.MustMachine(config.ArchOoO, 8, config.Options{})
	tr := prog.MustExecute(loopProgram(), ops)
	p, err := pipeline.New(m.Pipeline, tr.Ops, m.Factory)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunContextPreCancelled: a context cancelled before Run starts stops
// the simulation at the first poll boundary (cycle 0) with a wrapped
// context.Canceled.
func TestRunContextPreCancelled(t *testing.T) {
	p := cancelPipeline(t, 100_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := p.RunContext(ctx, 100_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Committed != 0 {
		t.Errorf("committed %d μops under a pre-cancelled context, want 0", s.Committed)
	}
}

// TestRunContextCancelMidRun: cancelling from another goroutine stops a
// long simulation well before it drains, leaving readable partial stats.
func TestRunContextCancelMidRun(t *testing.T) {
	const ops = 2_000_000
	p := cancelPipeline(t, ops)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	s, err := p.RunContext(ctx, ops)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Committed == 0 || s.Committed >= ops {
		t.Errorf("committed = %d, want a partial count in (0, %d)", s.Committed, ops)
	}
	if s.Cycles == 0 {
		t.Error("partial stats have no cycle count")
	}
}

// TestRunContextDeadline: a deadline surfaces as context.DeadlineExceeded
// through the same path.
func TestRunContextDeadline(t *testing.T) {
	const ops = 2_000_000
	p := cancelPipeline(t, ops)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := p.RunContext(ctx, ops); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunContextBackgroundUnchanged: Run (and RunContext with a
// background context) still drains the trace exactly as before.
func TestRunContextBackgroundUnchanged(t *testing.T) {
	const ops = 5_000
	p := cancelPipeline(t, ops)
	s, err := p.RunContext(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	if s.Committed != ops {
		t.Errorf("committed = %d, want %d", s.Committed, ops)
	}
}

// TestRunContextCancelInsideStall: a cancel that lands while OoO waits
// out pointer-chase cache misses — cycles the event horizon fast-forwards
// — still stops the run at the next poll, within one poll interval,
// instead of skipping past it to the next completion.
func TestRunContextCancelInsideStall(t *testing.T) {
	m := config.MustMachine(config.ArchOoO, 8, config.Options{})
	tr := hotLoopTrace(t, "pointer-chase", 4_000)
	p, err := pipeline.New(m.Pipeline, tr, m.Factory)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt uint64
	p.OnCommit = func(*sched.UOp) {
		if p.Stats().Committed == 1_000 {
			cancelledAt = p.Cycle()
			cancel()
		}
	}
	s, err := p.RunContext(ctx, uint64(len(tr)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cancelledAt == 0 || s.Committed >= uint64(len(tr)) {
		t.Fatalf("cancelled at cycle %d with %d commits, want a mid-run cancel", cancelledAt, s.Committed)
	}
	if p.SkippedCycles() == 0 {
		t.Error("no cycle skipped before the cancel; the stall path was not exercised")
	}
	stop := p.Cycle()
	if stop <= cancelledAt || stop-cancelledAt > pipeline.CancelPollInterval || stop%pipeline.CancelPollInterval != 0 {
		t.Errorf("cancelled at cycle %d but stopped at cycle %d, want the next %d-cycle poll", cancelledAt, stop, pipeline.CancelPollInterval)
	}
}
