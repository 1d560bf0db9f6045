package rdd

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"yafim/internal/exec"
	"yafim/internal/leaktest"
	"yafim/internal/obs"
	"yafim/internal/sim"
	"yafim/internal/vcluster"
)

// TestPreCanceledContext verifies a canceled context stops an action before
// any task runs, with the cancellation counted and no goroutines left.
func TestPreCanceledContext(t *testing.T) {
	defer leaktest.Check(t)()
	goCtx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := obs.New()
	ctx := newTestContext(t, WithContext(goCtx), WithRecorder(rec))

	var ran int64
	r := MapPartitions(Parallelize(ctx, "nums", ints(8), 4), "work",
		func(p int, rows []int, led *sim.Ledger) ([]int, error) {
			atomic.AddInt64(&ran, 1)
			return rows, nil
		})
	_, err := Collect(r)
	if !errors.Is(err, exec.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	var se *exec.StageError
	if !errors.As(err, &se) || se.Engine != "rdd" {
		t.Fatalf("err = %v, want *exec.StageError from the rdd engine", err)
	}
	if atomic.LoadInt64(&ran) != 0 {
		t.Errorf("%d tasks ran after cancellation", ran)
	}
	if got := rec.Counters().Cancellations; got == 0 {
		t.Error("cancellation not counted")
	}
}

// TestCancelMidStage cancels from inside a task closure: the observing task
// stops without retries, sibling tasks abort at their next attempt boundary,
// and the stage dies with a lineage-annotated cancellation StageError.
func TestCancelMidStage(t *testing.T) {
	defer leaktest.Check(t)()
	goCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obs.New()
	ctx := newTestContext(t, WithContext(goCtx), WithRecorder(rec))

	r := MapPartitions(Parallelize(ctx, "nums", ints(32), 16), "poison",
		func(p int, rows []int, led *sim.Ledger) ([]int, error) {
			if p == 0 {
				cancel()
				return nil, exec.ContextErr(goCtx)
			}
			return rows, nil
		})
	_, err := Collect(r)
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var se *exec.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *exec.StageError", err)
	}
	if se.Attempts != 0 {
		t.Errorf("cancellation reported %d attempts; cancellations must not retry", se.Attempts)
	}
	if len(se.Lineage) == 0 || se.Lineage[0] != "poison" {
		t.Errorf("lineage = %v, want to start at the failing stage", se.Lineage)
	}
	if rec.Counters().TaskRetries != 0 {
		t.Error("cancellation was retried")
	}
}

// TestDeterministicPanicFailsStage verifies a closure that always panics
// surfaces as a typed *exec.TaskError naming stage, partition and attempt —
// after the standard retry budget — instead of crashing the process.
func TestDeterministicPanicFailsStage(t *testing.T) {
	defer leaktest.Check(t)()
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec))

	r := MapPartitions(Parallelize(ctx, "nums", ints(8), 4), "boom",
		func(p int, rows []int, led *sim.Ledger) ([]int, error) {
			if p == 1 {
				panic("kaboom")
			}
			return rows, nil
		})
	_, err := Collect(r)
	if err == nil {
		t.Fatal("panicking stage succeeded")
	}
	var te *exec.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want a wrapped *exec.TaskError", err)
	}
	if !te.Panicked() || te.PanicValue != "kaboom" {
		t.Errorf("panic value = %v, want \"kaboom\"", te.PanicValue)
	}
	if te.Engine != "rdd" || te.Stage != "boom" || te.Part != 1 {
		t.Errorf("task identity = %s/%s/part %d, want rdd/boom/part 1", te.Engine, te.Stage, te.Part)
	}
	if te.Attempt != vcluster.MaxTaskAttempts {
		t.Errorf("surfaced attempt = %d, want the last (%d)", te.Attempt, vcluster.MaxTaskAttempts)
	}
	if len(te.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	var se *exec.StageError
	if !errors.As(err, &se) || se.Attempts != vcluster.MaxTaskAttempts {
		t.Errorf("stage error = %v, want Attempts = %d", err, vcluster.MaxTaskAttempts)
	}
	if got := rec.Counters().TaskPanics; got != vcluster.MaxTaskAttempts {
		t.Errorf("TaskPanics = %d, want one per attempt (%d)", got, vcluster.MaxTaskAttempts)
	}
}

// TestTransientPanicRetried verifies a panic on the first attempt only is
// absorbed by the retry machinery exactly like an injected transient fault.
func TestTransientPanicRetried(t *testing.T) {
	defer leaktest.Check(t)()
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec))

	var calls int64
	r := MapPartitions(Parallelize(ctx, "nums", ints(8), 4), "flaky",
		func(p int, rows []int, led *sim.Ledger) ([]int, error) {
			if p == 2 && atomic.AddInt64(&calls, 1) == 1 {
				panic("transient glitch")
			}
			return rows, nil
		})
	out, err := Collect(r)
	if err != nil {
		t.Fatalf("transient panic not recovered: %v", err)
	}
	if len(out) != 8 {
		t.Fatalf("collected %d rows, want 8", len(out))
	}
	c := rec.Counters()
	if c.TaskPanics != 1 {
		t.Errorf("TaskPanics = %d, want 1", c.TaskPanics)
	}
	if c.TaskRetries == 0 {
		t.Error("retry after transient panic not counted")
	}
}

// TestDeadlineExceeded verifies an expired deadline surfaces as
// ErrDeadlineExceeded (and not as a plain cancellation).
func TestDeadlineExceeded(t *testing.T) {
	defer leaktest.Check(t)()
	goCtx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	ctx := newTestContext(t, WithContext(goCtx))

	_, err := Collect(Parallelize(ctx, "nums", ints(8), 4))
	if !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to wrap context.DeadlineExceeded", err)
	}
	if errors.Is(err, exec.ErrCanceled) {
		t.Error("deadline expiry also matched ErrCanceled")
	}
}

// TestCancellationPartialTelemetry verifies a canceled run leaves the
// recorder in a writable state: whatever stages completed before the abort
// still render as a valid Chrome trace.
func TestCancellationPartialTelemetry(t *testing.T) {
	defer leaktest.Check(t)()
	goCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obs.New()
	ctx := newTestContext(t, WithContext(goCtx), WithRecorder(rec))

	base := Parallelize(ctx, "nums", ints(8), 4).Cache()
	if _, err := Collect(base); err != nil { // one full job before the abort
		t.Fatal(err)
	}
	second := MapPartitions(base, "canceled",
		func(p int, rows []int, led *sim.Ledger) ([]int, error) {
			cancel()
			return nil, exec.ContextErr(goCtx)
		})
	if _, err := Collect(second); !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}

	var sb writableBuffer
	if err := obs.WriteChromeTrace(&sb, rec); err != nil {
		t.Fatalf("partial trace not writable: %v", err)
	}
	if sb.n == 0 {
		t.Error("partial trace empty")
	}
}

// writableBuffer counts bytes written; the trace content itself is covered
// by the obs package's own tests.
type writableBuffer struct{ n int }

func (w *writableBuffer) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
