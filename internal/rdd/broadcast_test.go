package rdd

import (
	"testing"

	"yafim/internal/cluster"
	"yafim/internal/obs"
	"yafim/internal/sim"
)

// collectWithBroadcast runs one job whose tasks Acquire the broadcast value
// and returns the job's report.
func collectWithBroadcast(t *testing.T, ctx *Context, bc *Broadcast[int]) sim.JobReport {
	t.Helper()
	r := MapPartitions(Parallelize(ctx, "nums", ints(8), 4), "use-bc",
		func(p int, rows []int, led *sim.Ledger) ([]int, error) {
			v := bc.Acquire(led)
			out := make([]int, len(rows))
			for i, x := range rows {
				out[i] = x + v
			}
			return out, nil
		})
	if _, err := Collect(r); err != nil {
		t.Fatal(err)
	}
	reports := ctx.Reports()
	return reports[len(reports)-1]
}

// TestBroadcastChargesDistributionOnce verifies the §IV-C model: creating a
// broadcast charges one tree-structured distribution to the next job's
// overhead, tasks acquire it for free, and the recorder sees the payload as
// broadcast (not naive-shipped) bytes.
func TestBroadcastChargesDistributionOnce(t *testing.T) {
	cfg := cluster.Local()
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec))

	// Warm up so the application's one-time JobStartup is out of the way,
	// then measure a baseline job with a zero-byte broadcast: same stages,
	// no payload.
	collectWithBroadcast(t, ctx, NewBroadcast(ctx, 1, 0))
	base := collectWithBroadcast(t, ctx, NewBroadcast(ctx, 1, 0))

	const bytes = int64(1 << 20)
	bc := NewBroadcast(ctx, 2, bytes)
	if bc.value != 2 || bc.bytes != bytes {
		t.Fatalf("broadcast fields: value=%d bytes=%d", bc.value, bc.bytes)
	}
	rep := collectWithBroadcast(t, ctx, bc)

	want := broadcastTime(cfg, bytes)
	if got := rep.Overhead - base.Overhead; got != want {
		t.Errorf("broadcast overhead = %v, want %v", got, want)
	}
	c := rec.Counters()
	if c.BroadcastBytes != bytes {
		t.Errorf("BroadcastBytes = %d, want %d", c.BroadcastBytes, bytes)
	}
	if c.NaiveShipBytes != 0 {
		t.Errorf("NaiveShipBytes = %d, want 0 with broadcasting on", c.NaiveShipBytes)
	}
}

// TestBroadcastNaiveShipping verifies the WithoutBroadcast ablation: creation
// is free, every Acquire charges the task's ledger for the payload, and the
// job pays the driver's serialized uplink for the total shipped volume.
func TestBroadcastNaiveShipping(t *testing.T) {
	cfg := cluster.Local()
	rec := obs.New()
	ctx := newTestContext(t, WithRecorder(rec), WithoutBroadcast())

	collectWithBroadcast(t, ctx, NewBroadcast(ctx, 1, 0)) // pay JobStartup
	base := collectWithBroadcast(t, ctx, NewBroadcast(ctx, 1, 0))

	const bytes = int64(1 << 20)
	bc := NewBroadcast(ctx, 3, bytes)
	rep := collectWithBroadcast(t, ctx, bc)

	// 4 partitions acquired the value, so 4x the payload went through the
	// driver's single uplink, charged serially at job level.
	want := transferTime(cfg, 4*bytes)
	if got := rep.Overhead - base.Overhead; got != want {
		t.Errorf("naive ship overhead = %v, want %v", got, want)
	}
	c := rec.Counters()
	if c.NaiveShipBytes != 4*bytes {
		t.Errorf("NaiveShipBytes = %d, want %d", c.NaiveShipBytes, 4*bytes)
	}
	if c.BroadcastBytes != 0 {
		t.Errorf("BroadcastBytes = %d, want 0 under naive shipping", c.BroadcastBytes)
	}
}

// TestBroadcastAcquireChargesLedger checks the per-task side of naive
// shipping: Acquire bills the payload to the ledger it is given, and a nil
// ledger (driver-side access) is tolerated.
func TestBroadcastAcquireChargesLedger(t *testing.T) {
	ctx := newTestContext(t, WithoutBroadcast())
	const bytes = int64(4096)
	bc := NewBroadcast(ctx, 9, bytes)

	led := &sim.Ledger{}
	if got := bc.Acquire(led); got != 9 {
		t.Fatalf("Acquire = %d, want 9", got)
	}
	if led.Total().Net != bytes {
		t.Errorf("ledger net bytes = %d, want %d", led.Total().Net, bytes)
	}
	bc.Acquire(nil) // must not panic

	on := newTestContext(t)
	free := NewBroadcast(on, 9, bytes)
	led2 := &sim.Ledger{}
	free.Acquire(led2)
	if led2.Total().Net != 0 {
		t.Errorf("broadcast-mode Acquire charged %d bytes, want 0", led2.Total().Net)
	}
}

// TestBroadcastTimeModel pins the binary-tree distribution model and the
// negative-size clamp.
func TestBroadcastTimeModel(t *testing.T) {
	cfg := cluster.Local()
	if got := broadcastTime(cfg, 0); got != 0 {
		t.Errorf("broadcastTime(0) = %v, want 0", got)
	}
	one := broadcastTime(cfg, 1<<20)
	two := broadcastTime(cfg, 2<<20)
	if one <= 0 || two != 2*one {
		t.Errorf("broadcastTime not linear in bytes: 1MiB=%v 2MiB=%v", one, two)
	}
	big := cfg
	big.Nodes = 12 // ceil(log2(13)) = 4 rounds vs Local's ceil(log2(3)) = 2
	if a, b := broadcastTime(cfg, 1<<20), broadcastTime(big, 1<<20); b != 2*a {
		t.Errorf("rounds scaling: 2 nodes %v, 12 nodes %v, want exactly 2x", a, b)
	}
	if bc := NewBroadcast(newTestContext(t), 0, -5); bc.bytes != 0 {
		t.Errorf("negative size not clamped: %d", bc.bytes)
	}
}
