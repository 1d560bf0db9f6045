package obs

import (
	"testing"
	"time"

	"yafim/internal/sim"
)

// sampleRecorder builds a recorder with two jobs: one two-stage RDD job on
// pass 1 and one single-stage MapReduce job on pass 2.
func sampleRecorder() *Recorder {
	r := New()
	r.SetPass(1)
	r.BeginJob("rdd", "collect(L1)")
	r.AddStage(StageSpan{
		Name:     "count",
		Overhead: time.Millisecond,
		Makespan: 5 * time.Millisecond,
		Total:    sim.Cost{CPUOps: 100, DiskRead: 2048},
		Tasks: []TaskSpan{
			{Index: 0, Node: 0, Core: 0, Start: 0, End: 2 * time.Millisecond, Attempts: 1},
			{Index: 1, Node: 1, Core: 1, Start: 0, End: 4 * time.Millisecond, Attempts: 2, Remote: true},
		},
	})
	r.AddStage(StageSpan{Name: "reduce", Makespan: 3 * time.Millisecond})
	r.EndJob(2 * time.Millisecond)

	r.SetPass(2)
	r.BeginJob("mapreduce", "countC2")
	r.AddStage(StageSpan{
		Name:     "countC2:map",
		Makespan: 7 * time.Millisecond,
		Tasks:    []TaskSpan{{Index: 0, Node: 2, Core: 0, End: 7 * time.Millisecond, Attempts: 1}},
	})
	r.EndJob(time.Millisecond)

	r.Add(Counters{CacheHits: 1, CacheMisses: 1})
	r.Add(Counters{CacheEvictions: 3, LineageRecomputes: 2})
	r.Add(Counters{BroadcastBytes: 1024, NaiveShipBytes: 4096, ShuffleBytes: 512})
	r.Add(Counters{DFSReadBytes: 100, DFSWriteBytes: 200})
	r.Add(Counters{TaskRetries: 1, WastedCost: sim.Cost{CPUOps: 50}})
	r.Add(Counters{LocalityLocal: 5, LocalityRemote: 1})
	return r
}

func TestRecorderSpanTree(t *testing.T) {
	r := sampleRecorder()
	jobs := r.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}
	first := jobs[0]
	if first.Engine != "rdd" || first.Name != "collect(L1)" || first.Pass != 1 {
		t.Fatalf("first job = %+v", first)
	}
	if len(first.Stages) != 2 {
		t.Fatalf("first job stages = %d, want 2", len(first.Stages))
	}
	// Duration = overhead + sum of stage makespans.
	if got, want := first.Duration(), 10*time.Millisecond; got != want {
		t.Fatalf("job duration = %v, want %v", got, want)
	}
	if got := first.Stages[0].Tasks[1].Duration(); got != 4*time.Millisecond {
		t.Fatalf("task duration = %v", got)
	}
	second := jobs[1]
	if second.Engine != "mapreduce" || second.Pass != 2 {
		t.Fatalf("second job = %+v", second)
	}
}

func TestRecorderImplicitJobHandling(t *testing.T) {
	r := New()
	// A stage recorded before any job opens a synthetic one.
	r.AddStage(StageSpan{Name: "orphan", Makespan: time.Millisecond})
	r.EndJob(0)
	// An unterminated job is closed implicitly by the next BeginJob.
	r.BeginJob("rdd", "left-open")
	r.BeginJob("rdd", "next")
	r.EndJob(0)

	jobs := r.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(jobs))
	}
	if jobs[0].Engine != "unknown" || jobs[0].Name != "orphan" {
		t.Fatalf("synthetic job = %+v", jobs[0])
	}
	if jobs[1].Name != "left-open" || jobs[2].Name != "next" {
		t.Fatalf("implicit close order wrong: %q, %q", jobs[1].Name, jobs[2].Name)
	}
	// EndJob with nothing open is a no-op.
	r.EndJob(time.Second)
	if got := len(r.Jobs()); got != 3 {
		t.Fatalf("jobs after stray EndJob = %d", got)
	}
}

func TestRecorderCounters(t *testing.T) {
	r := sampleRecorder()
	c := r.Counters()
	want := Counters{
		CacheHits: 1, CacheMisses: 1, CacheEvictions: 3, LineageRecomputes: 2,
		BroadcastBytes: 1024, NaiveShipBytes: 4096, ShuffleBytes: 512,
		DFSReadBytes: 100, DFSWriteBytes: 200,
		TaskRetries: 1, WastedCost: sim.Cost{CPUOps: 50},
		LocalityLocal: 5, LocalityRemote: 1,
	}
	if c != want {
		t.Fatalf("counters = %+v, want %+v", c, want)
	}
}

func TestCountersSubIsZero(t *testing.T) {
	a := Counters{CacheHits: 5, ShuffleBytes: 100, WastedCost: sim.Cost{CPUOps: 10}}
	b := Counters{CacheHits: 2, ShuffleBytes: 40, WastedCost: sim.Cost{CPUOps: 4}}
	d := a.Sub(b)
	if d.CacheHits != 3 || d.ShuffleBytes != 60 || d.WastedCost.CPUOps != 6 {
		t.Fatalf("Sub = %+v", d)
	}
	if !a.Sub(a).IsZero() {
		t.Fatal("a - a not zero")
	}
	if a.IsZero() {
		t.Fatal("non-empty counters reported zero")
	}
	if !(Counters{}).IsZero() {
		t.Fatal("zero value not zero")
	}
}

func TestSpanFromSchedule(t *testing.T) {
	rep := sim.StageReport{
		Name:     "stage",
		Tasks:    2,
		Total:    sim.Cost{CPUOps: 30},
		Makespan: 9 * time.Millisecond,
	}
	placements := []sim.TaskPlacement{
		{Task: 0, Node: 0, Core: 1, Start: 0, End: 4 * time.Millisecond},
		{Task: 1, Node: 1, Core: 0, Start: time.Millisecond, End: 9 * time.Millisecond, Remote: true},
	}
	costs := []sim.Cost{{CPUOps: 10}, {CPUOps: 20}}
	attempts := []int{1, 3}
	span := SpanFromSchedule(rep, time.Millisecond, placements, costs, attempts)
	if span.Name != "stage" || span.Overhead != time.Millisecond || span.Makespan != rep.Makespan {
		t.Fatalf("span = %+v", span)
	}
	if len(span.Tasks) != 2 {
		t.Fatalf("tasks = %d", len(span.Tasks))
	}
	if got := span.Tasks[1]; got.Attempts != 3 || !got.Remote || got.Cost.CPUOps != 20 ||
		got.Node != 1 || got.Start != time.Millisecond {
		t.Fatalf("task[1] = %+v", got)
	}

	// Missing costs/attempts default to zero cost and one attempt.
	bare := SpanFromSchedule(rep, 0, placements, nil, nil)
	if got := bare.Tasks[0]; got.Attempts != 1 || got.Cost != (sim.Cost{}) {
		t.Fatalf("bare task = %+v", got)
	}
}

// TestNilRecorderSafe exercises every method on a nil recorder: none may
// panic, and the read paths must return empty values.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.SetPass(3)
	r.BeginJob("rdd", "x")
	r.AddStage(StageSpan{Name: "s"})
	r.EndJob(time.Second)
	r.Add(Counters{CacheHits: 1, ShuffleResidentBytes: 1, WastedCost: sim.Cost{CPUOps: 1}})
	if jobs := r.Jobs(); jobs != nil {
		t.Fatalf("nil recorder jobs = %v", jobs)
	}
	if c := r.Counters(); !c.IsZero() {
		t.Fatalf("nil recorder counters = %+v", c)
	}
}

// TestNilRecorderAllocFree guards the un-instrumented hot path: Add on a nil
// recorder must not allocate.
func TestNilRecorderAllocFree(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.Add(Counters{CacheHits: 1})
		r.Add(Counters{ShuffleBytes: 64})
		r.Add(Counters{TaskRetries: 1, WastedCost: sim.Cost{CPUOps: 1}})
		r.Add(Counters{ShuffleResidentBytes: 64})
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f per run, want 0", allocs)
	}
}

// BenchmarkNilRecorderHotPath measures the disabled-telemetry overhead the
// engines pay per task.
func BenchmarkNilRecorderHotPath(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(Counters{CacheHits: 1})
		r.Add(Counters{ShuffleBytes: int64(i)})
	}
}

// TestRecorderConcurrentUse adds from several goroutines while the driver
// records spans and snapshots the counters. One Add is one update: no
// snapshot sees a fetch failure without the stage rerun added with it.
func TestRecorderConcurrentUse(t *testing.T) {
	r := New()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				r.Add(Counters{CacheHits: 1})
				r.Add(Counters{ShuffleBytes: 1, ShuffleResidentBytes: 1})
				r.Add(Counters{FetchFailures: 1, StagesRerun: 1})
			}
		}()
	}
	r.BeginJob("rdd", "job")
	r.AddStage(StageSpan{Name: "s"})
	r.EndJob(0)
	for i := 0; i < 100; i++ {
		if c := r.Counters(); c.FetchFailures != c.StagesRerun {
			t.Fatalf("snapshot split one Add: %d fetch failures, %d stage reruns",
				c.FetchFailures, c.StagesRerun)
		}
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	c := r.Counters()
	if c.CacheHits != 4000 || c.ShuffleBytes != 4000 || c.ShuffleResidentBytes != 4000 ||
		c.FetchFailures != 4000 {
		t.Fatalf("counters = %+v", c)
	}
}
