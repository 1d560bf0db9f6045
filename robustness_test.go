package yafim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"yafim/internal/leaktest"
)

func robustDB(t testing.TB) *DB {
	t.Helper()
	db, err := GenMushroom(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestMineInputValidation exercises every rejected argument: each must fail
// fast with a typed *InputError naming the offending field.
func TestMineInputValidation(t *testing.T) {
	db := robustDB(t)
	cases := []struct {
		name    string
		db      *DB
		support float64
		opts    Options
		field   string
	}{
		{"nil db", nil, 0.1, Options{}, "db"},
		{"NaN support", db, math.NaN(), Options{}, "minSupport"},
		{"zero support", db, 0, Options{}, "minSupport"},
		{"negative support", db, -0.5, Options{}, "minSupport"},
		{"support above one", db, 1.5, Options{}, "minSupport"},
		{"negative MaxK", db, 0.1, Options{MaxK: -1}, "MaxK"},
		{"negative Tasks", db, 0.1, Options{Tasks: -4}, "Tasks"},
		{"negative Deadline", db, 0.1, Options{Deadline: -time.Second}, "Deadline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Mine(c.db, c.support, c.opts)
			var ie *InputError
			if !errors.As(err, &ie) {
				t.Fatalf("err = %v, want *InputError", err)
			}
			if ie.Field != c.field {
				t.Errorf("field = %q, want %q", ie.Field, c.field)
			}
			if !strings.Contains(ie.Error(), c.field) {
				t.Errorf("message %q does not name the field", ie.Error())
			}
		})
	}
}

// TestMineContextCanceled verifies every engine respects a canceled
// context: the RDD engines, the MapReduce engines, and the sequential
// engines via their up-front check and per-pass interrupt hook.
func TestMineContextCanceled(t *testing.T) {
	defer leaktest.Check(t)()
	db := robustDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	small := ClusterLocal()
	for _, eng := range Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			_, err := MineContext(ctx, db, 0.2, Options{Engine: eng, Cluster: &small})
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want to wrap context.Canceled", err)
			}
		})
	}
}

// TestMineDeadline verifies Options.Deadline cuts a run short with
// ErrDeadlineExceeded.
func TestMineDeadline(t *testing.T) {
	defer leaktest.Check(t)()
	db := robustDB(t)
	small := ClusterLocal()
	_, err := Mine(db, 0.2, Options{Cluster: &small, Deadline: time.Nanosecond})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Error("deadline expiry also matched ErrCanceled")
	}
}

// TestMineCanceledPartialTrace verifies that a run aborted by cancellation
// leaves its recorder writable: the partial virtual timeline still renders
// as Chrome trace JSON.
func TestMineCanceledPartialTrace(t *testing.T) {
	defer leaktest.Check(t)()
	db := robustDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := NewRecorder()
	small := ClusterLocal()
	_, err := MineContext(ctx, db, 0.2, Options{Cluster: &small, Recorder: rec})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rec); err != nil {
		t.Fatalf("partial trace not writable: %v", err)
	}
	if buf.Len() == 0 {
		t.Error("partial trace empty")
	}
}

// TestMineContextStillExact confirms the hardening changed nothing about
// results: a context-carrying run and a plain run agree exactly.
func TestMineContextStillExact(t *testing.T) {
	defer leaktest.Check(t)()
	db := robustDB(t)
	small := ClusterLocal()
	plain, err := Mine(db, 0.2, Options{Cluster: &small})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := MineContext(context.Background(), db, 0.2, Options{Cluster: &small})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Result.Equal(withCtx.Result) {
		t.Error("context-carrying run changed the mining result")
	}
}
