package mapreduce

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"yafim/internal/cluster"
	"yafim/internal/exec"
	"yafim/internal/itemset"
	"yafim/internal/leaktest"
	"yafim/internal/obs"
	"yafim/internal/sim"
	"yafim/internal/vcluster"
)

// panicMapper panics while mapping: always when limit == 0, otherwise only
// for the first `limit` calls (transient mode).
type panicMapper struct {
	limit *int64 // nil = always panic
}

func (m *panicMapper) Cleanup(Emit, *sim.Ledger) error { return nil }

func (m *panicMapper) Map(items itemset.Itemset, emit Emit, led *sim.Ledger) error {
	if m.limit == nil || atomic.AddInt64(m.limit, -1) >= 0 {
		panic("mapper exploded")
	}
	return (&itemCountMapper{}).Map(items, emit, led)
}

func newRobustRunner(t *testing.T, rec *obs.Recorder) *Runner {
	t.Helper()
	fs := setupFS(t, 32, corpus)
	runner, err := NewRunner(fs, cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	runner.SetRecorder(rec)
	return runner
}

// TestRunContextPreCanceled verifies a canceled context rejects the job
// before any stage runs.
func TestRunContextPreCanceled(t *testing.T) {
	defer leaktest.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := obs.New()
	runner := newRobustRunner(t, rec)

	_, _, err := runner.RunContext(ctx, itemCountJob(false))
	if !errors.Is(err, exec.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if rec.Counters().Cancellations == 0 {
		t.Error("cancellation not counted")
	}
}

// TestRunContextCancelMidJob cancels from inside a map task: the job dies
// with a cancellation StageError naming the mapreduce engine, untried.
func TestRunContextCancelMidJob(t *testing.T) {
	defer leaktest.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obs.New()
	runner := newRobustRunner(t, rec)

	job := itemCountJob(false)
	job.NewMapper = func() Mapper {
		return &cancelingMapper{cancel: cancel, ctx: ctx}
	}
	_, _, err := runner.RunContext(ctx, job)
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var se *exec.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *exec.StageError", err)
	}
	if se.Engine != "mapreduce" || se.Attempts != 0 {
		t.Errorf("stage error engine=%s attempts=%d, want mapreduce/0", se.Engine, se.Attempts)
	}
	if rec.Counters().TaskRetries != 0 {
		t.Error("cancellation was retried")
	}
}

// cancelingMapper cancels the shared context on its first record and
// returns the cancellation error, as a cooperative closure should.
type cancelingMapper struct {
	cancel context.CancelFunc
	ctx    context.Context
}

func (m *cancelingMapper) Cleanup(Emit, *sim.Ledger) error { return nil }

func (m *cancelingMapper) Map(itemset.Itemset, Emit, *sim.Ledger) error {
	m.cancel()
	return exec.ContextErr(m.ctx)
}

// TestMapperPanicIsolated verifies a deterministic mapper panic becomes a
// typed *exec.TaskError after the retry budget instead of crashing.
func TestMapperPanicIsolated(t *testing.T) {
	defer leaktest.Check(t)()
	rec := obs.New()
	runner := newRobustRunner(t, rec)

	job := itemCountJob(false)
	job.NewMapper = func() Mapper { return &panicMapper{} }
	_, _, err := runner.RunContext(context.Background(), job)
	if err == nil {
		t.Fatal("panicking job succeeded")
	}
	var te *exec.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want a wrapped *exec.TaskError", err)
	}
	if !te.Panicked() || te.PanicValue != "mapper exploded" {
		t.Errorf("panic value = %v, want \"mapper exploded\"", te.PanicValue)
	}
	if te.Engine != "mapreduce" || te.Attempt != vcluster.MaxTaskAttempts {
		t.Errorf("task identity = %s attempt %d, want mapreduce attempt %d",
			te.Engine, te.Attempt, vcluster.MaxTaskAttempts)
	}
	if rec.Counters().TaskPanics == 0 {
		t.Error("panics not counted")
	}
}

// TestMapperTransientPanicRetried verifies a single panic is retried away
// like any transient fault and the job still produces correct output.
func TestMapperTransientPanicRetried(t *testing.T) {
	defer leaktest.Check(t)()
	rec := obs.New()
	runner := newRobustRunner(t, rec)

	var budget int64 = 1
	job := itemCountJob(false)
	job.NewMapper = func() Mapper { return &panicMapper{limit: &budget} }
	_, _, err := runner.RunContext(context.Background(), job)
	if err != nil {
		t.Fatalf("transient panic not recovered: %v", err)
	}
	c := rec.Counters()
	if c.TaskPanics != 1 {
		t.Errorf("TaskPanics = %d, want 1", c.TaskPanics)
	}
	if c.TaskRetries == 0 {
		t.Error("retry after transient panic not counted")
	}
}
