package rdd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/shuffle"
	"yafim/internal/vcluster"
)

// fuzzProb folds an arbitrary float into a valid probability in [0, 1).
func fuzzProb(p float64) float64 {
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return 0
	}
	return math.Abs(math.Mod(p, 1))
}

// fuzzPipeline runs the cache-count-shuffle pipeline on a fuzz-chosen
// dataset and returns the collected pairs plus the context.
func fuzzPipeline(t *testing.T, rows, keys int, opts ...Option) ([]shuffle.Pair[string, int64], *Context) {
	t.Helper()
	ctx, err := NewContext(cluster.Local(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var data []shuffle.Pair[string, int64]
	for i := 0; i < rows; i++ {
		data = append(data, shuffle.Pair[string, int64]{Key: fmt.Sprintf("k%d", i%keys), Value: 1})
	}
	pairs := Parallelize(ctx, "pairs", data, 16).Cache()
	if _, err := Count(pairs); err != nil {
		t.Fatal(err)
	}
	counted := ReduceByKey(pairs, "counted", func(a, b int64) int64 { return a + b }, 8)
	out, err := Collect(counted)
	if err != nil {
		t.Fatal(err)
	}
	return out, ctx
}

// FuzzChaosInvariant checks the engine's exactness guarantee over random
// seeds, datasets and fault plans: whatever faults the plan injects —
// transient task failures, stragglers, fetch and block-read failures, a
// mid-run node crash — the chaotic run must produce exactly the fault-free
// results, and a second chaotic run with the same seed must reproduce the
// same makespan.
func FuzzChaosInvariant(f *testing.F) {
	f.Add(int64(7), 0.05, 0.02, 0.01, uint8(4), uint16(400), uint8(37), true)
	f.Add(int64(99), 0.5, 0.9, 0.3, uint8(1), uint16(64), uint8(3), false)
	f.Add(int64(-3), 1.0, 0.0, 1.0, uint8(16), uint16(900), uint8(61), true)
	f.Fuzz(func(t *testing.T, seed int64, taskP, fetchP, readP float64,
		factor uint8, rows uint16, keys uint8, crash bool) {
		nRows := 50 + int(rows)%800
		nKeys := 1 + int(keys)%64
		want, refCtx := fuzzPipeline(t, nRows, nKeys)

		plan := &chaos.Plan{
			Seed:              seed,
			TaskFailProb:      fuzzProb(taskP),
			FetchFailProb:     fuzzProb(fetchP),
			BlockReadFailProb: fuzzProb(readP),
			Stragglers:        []chaos.Straggler{{Node: 0, Factor: 1 + float64(factor%8)}},
		}
		if crash {
			plan.Crash = &chaos.NodeCrash{
				Node: 1,
				At:   refCtx.TotalDuration() / 3,
			}
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("fuzz built an invalid plan: %v", err)
		}

		got, ctx1 := fuzzPipeline(t, nRows, nKeys, WithChaos(plan))
		if len(got) != len(want) {
			t.Fatalf("chaos changed result size: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chaos changed pair %d: %+v vs %+v", i, got[i], want[i])
			}
		}

		got2, ctx2 := fuzzPipeline(t, nRows, nKeys, WithChaos(plan))
		for i := range got2 {
			if got2[i] != want[i] {
				t.Fatalf("second chaotic run changed pair %d: %+v vs %+v", i, got2[i], want[i])
			}
		}
		if d1, d2 := ctx1.TotalDuration(), ctx2.TotalDuration(); d1 != d2 {
			t.Fatalf("same seed diverged: %v vs %v", d1, d2)
		}
	})
}

// FuzzShuffleLifecycle drives the shuffle lifecycle manager through an
// arbitrary interleaving of actions, cancellations, node kills, cache drops,
// exhausted-retry failures and reclamations, then checks the two lifecycle
// invariants: after Close the shuffle residency accounting is exactly zero,
// and a final clean action still produces the fault-free reference result.
func FuzzShuffleLifecycle(f *testing.F) {
	f.Add([]byte{0, 2, 0, 3, 0}, uint16(200), uint8(7))
	f.Add([]byte{1, 0, 4, 0, 2, 2, 5, 0}, uint16(97), uint8(3))
	f.Add([]byte{4, 1, 3, 2, 0}, uint16(513), uint8(31))
	f.Fuzz(func(t *testing.T, ops []byte, rows uint16, keys uint8) {
		nRows := 20 + int(rows)%800
		nKeys := 1 + int(keys)%64
		want, _ := fuzzPipeline(t, nRows, nKeys)

		ctx, err := NewContext(cluster.Local())
		if err != nil {
			t.Fatal(err)
		}
		var data []shuffle.Pair[string, int64]
		for i := 0; i < nRows; i++ {
			data = append(data, shuffle.Pair[string, int64]{Key: fmt.Sprintf("k%d", i%nKeys), Value: 1})
		}
		var plan failPlan
		pairs := flaky(Parallelize(ctx, "pairs", data, 16).Cache(), &plan)
		counted := ReduceByKey(pairs, "counted", func(a, b int64) int64 { return a + b }, 8)

		run := func() ([]shuffle.Pair[string, int64], error) { return Collect(counted) }
		if len(ops) > 24 {
			ops = ops[:24]
		}
		for i, op := range ops {
			switch op % 6 {
			case 0: // clean action
				if out, err := run(); err != nil {
					t.Fatalf("op %d: clean run failed: %v", i, err)
				} else if len(out) != len(want) {
					t.Fatalf("op %d: clean run returned %d keys, want %d", i, len(out), len(want))
				}
			case 1: // cancel before the action, then restore
				canceled, cancel := context.WithCancel(context.Background())
				cancel()
				ctx.goCtx = canceled
				if _, err := run(); err == nil {
					t.Fatalf("op %d: canceled run succeeded", i)
				}
				ctx.goCtx = context.Background()
			case 2: // node loss
				ctx.KillNode(int(op) % 2)
			case 3: // drop every cached partition
				ctx.dropAllCaches()
			case 4: // exhaust the retry budget in the map stage
				// Free the shuffle first: with its output resident the map
				// stage would not re-run and the injection would never fire.
				ctx.FreeShuffles()
				plan.arm(i%16, vcluster.MaxTaskAttempts)
				if _, err := run(); !errors.Is(err, errInjected) {
					t.Fatalf("op %d: run with exhausted retries: err = %v, want the injected failure", i, err)
				}
			case 5: // reclaim everything
				ctx.FreeShuffles()
			}
		}

		got, err := run()
		if err != nil {
			t.Fatalf("final clean run failed: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("final run returned %d keys, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("final pair %d: %+v vs fault-free %+v", i, got[i], want[i])
			}
		}
		ctx.FreeShuffles()
		if n := ctx.ShuffleResidentBytes(); n != 0 {
			t.Fatalf("shuffle_resident_bytes = %d after FreeShuffles, want 0", n)
		}
		for node := 0; node < 2; node++ {
			if n := ctx.shuffleNodeBytes(node); n != 0 {
				t.Fatalf("node %d retains %d shuffle bytes after FreeShuffles", node, n)
			}
		}
	})
}
