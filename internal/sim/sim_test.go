package sim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"yafim/internal/cluster"
)

func testConfig(nodes, cores int) cluster.Config {
	return cluster.Config{
		Name:         "test",
		Nodes:        nodes,
		CoresPerNode: cores,
		CPUOpsPerSec: 1e6,
		DiskBWPerSec: 1e6,
		NetBWPerSec:  1e6,
	}
}

// makespan is a stage's completion time under the zero-option schedule:
// the per-stage overhead plus PlaceTasksOpts' schedule length.
func makespan(cfg cluster.Config, tasks []Placed) time.Duration {
	_, _, m := PlaceTasksOpts(cfg, tasks, StageOpts{})
	return cfg.StageOverhead + m
}

func TestCostAdd(t *testing.T) {
	a := Cost{CPUOps: 1, DiskRead: 2, DiskWrite: 3, Net: 4}
	b := Cost{CPUOps: 10, DiskRead: 20, DiskWrite: 30, Net: 40}
	got := a.Add(b)
	want := Cost{CPUOps: 11, DiskRead: 22, DiskWrite: 33, Net: 44}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}

func TestLedgerConcurrent(t *testing.T) {
	var l Ledger
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.AddCPU(1)
				l.AddDiskRead(2)
				l.AddDiskWrite(3)
				l.AddNet(4)
			}
		}()
	}
	wg.Wait()
	got := l.Total()
	want := Cost{CPUOps: 8000, DiskRead: 16000, DiskWrite: 24000, Net: 32000}
	if got != want {
		t.Fatalf("ledger total = %+v, want %+v", got, want)
	}
}

func TestTaskTimeComponents(t *testing.T) {
	cfg := testConfig(1, 2)
	cfg.TaskLaunch = 10 * time.Millisecond
	// 1e6 CPU ops at 1e6 ops/s = 1s. 500e3 disk bytes at (1e6/2) B/s = 1s.
	// 250e3 net bytes at (1e6/2) B/s = 0.5s.
	got := TaskTime(cfg, Cost{CPUOps: 1e6, DiskRead: 250e3, DiskWrite: 250e3, Net: 250e3})
	want := 10*time.Millisecond + 2500*time.Millisecond
	if got != want {
		t.Fatalf("TaskTime = %v, want %v", got, want)
	}
}

func TestMakespanSingleCoreIsSum(t *testing.T) {
	cfg := testConfig(1, 1)
	tasks := []Placed{{Cost: Cost{CPUOps: 1e6}}, {Cost: Cost{CPUOps: 2e6}}, {Cost: Cost{CPUOps: 3e6}}}
	got := makespan(cfg, tasks)
	if want := 6 * time.Second; got != want {
		t.Fatalf("Makespan = %v, want %v", got, want)
	}
}

func TestMakespanPerfectSplit(t *testing.T) {
	cfg := testConfig(2, 1)
	tasks := []Placed{{Cost: Cost{CPUOps: 3e6}}, {Cost: Cost{CPUOps: 2e6}}, {Cost: Cost{CPUOps: 1e6}}}
	// LPT: 3s -> core0, 2s -> core1, 1s -> core1. Makespan 3s.
	if got := makespan(cfg, tasks); got != 3*time.Second {
		t.Fatalf("Makespan = %v, want 3s", got)
	}
}

func TestMakespanEmptyStage(t *testing.T) {
	cfg := testConfig(4, 4)
	cfg.StageOverhead = 7 * time.Millisecond
	if got := makespan(cfg, nil); got != 7*time.Millisecond {
		t.Fatalf("empty stage makespan = %v", got)
	}
}

func TestMakespanInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid config")
		}
	}()
	PlaceTasksOpts(cluster.Config{}, []Placed{{Cost: Cost{CPUOps: 1}}}, StageOpts{})
}

// Property: doubling the node count never increases the makespan, and the
// makespan never drops below the duration of the largest single task.
func TestMakespanMonotoneProperty(t *testing.T) {
	f := func(raw []uint32, nodes8 uint8) bool {
		nodes := int(nodes8%6) + 1
		if len(raw) > 64 {
			raw = raw[:64]
		}
		tasks := make([]Placed, len(raw))
		for i, v := range raw {
			tasks[i] = Placed{Cost: Cost{CPUOps: float64(v % 1e6), DiskRead: int64(v % 1e4)}}
		}
		small := testConfig(nodes, 2)
		big := testConfig(2*nodes, 2)
		msSmall := makespan(small, tasks)
		msBig := makespan(big, tasks)
		if msBig > msSmall {
			return false
		}
		var largest time.Duration
		for _, c := range tasks {
			if d := TaskTime(small, c.Cost); d > largest {
				largest = d
			}
		}
		return msSmall >= largest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: makespan is at least total work divided by core count (the
// theoretical lower bound for any schedule).
func TestMakespanLowerBoundProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		tasks := make([]Placed, len(raw))
		var totalOps float64
		for i, v := range raw {
			tasks[i] = Placed{Cost: Cost{CPUOps: float64(v)}}
			totalOps += float64(v)
		}
		cfg := testConfig(2, 2)
		bound := time.Duration(totalOps / cfg.CPUOpsPerSec / 4 * float64(time.Second))
		return makespan(cfg, tasks) >= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMakespanDeterministic(t *testing.T) {
	cfg := testConfig(3, 2)
	tasks := make([]Placed, 50)
	for i := range tasks {
		tasks[i] = Placed{Cost: Cost{CPUOps: float64((i*7919)%1000) * 1e3, Net: int64(i * 100)}}
	}
	first := makespan(cfg, tasks)
	for i := 0; i < 5; i++ {
		if got := makespan(cfg, tasks); got != first {
			t.Fatalf("run %d: makespan %v != %v", i, got, first)
		}
	}
}

func TestRunStageAggregates(t *testing.T) {
	cfg := testConfig(2, 2)
	tasks := []Placed{{Cost: Cost{CPUOps: 5}}, {Cost: Cost{CPUOps: 7, Net: 100}}}
	rep, _, _ := RunStageResilient(cfg, "count", tasks, StageOpts{})
	if rep.Name != "count" || rep.Tasks != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Total.CPUOps != 12 || rep.Total.Net != 100 {
		t.Fatalf("total = %+v", rep.Total)
	}
	if rep.Makespan <= 0 {
		t.Fatalf("makespan = %v", rep.Makespan)
	}
}

func TestJobReportDuration(t *testing.T) {
	j := JobReport{
		Name:     "job",
		Overhead: time.Second,
		Stages: []StageReport{
			{Name: "map", Makespan: 2 * time.Second, Total: Cost{CPUOps: 1}},
			{Name: "reduce", Makespan: 3 * time.Second, Total: Cost{CPUOps: 2}},
		},
	}
	if got := j.Duration(); got != 6*time.Second {
		t.Fatalf("Duration = %v", got)
	}
}
