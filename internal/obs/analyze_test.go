package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"yafim/internal/cluster"
	"yafim/internal/sim"
)

// analyzeRecorder builds a run whose skew story is fully known: a two-job
// run where one stage has a straggler of each attributable kind.
func analyzeRecorder(cfg cluster.Config) *Recorder {
	r := New()
	base := sim.Cost{CPUOps: 1_000}
	heavy := sim.Cost{CPUOps: 20_000}
	baseDur := sim.ExpectedTaskTime(cfg, base, 0, false)
	heavyDur := sim.ExpectedTaskTime(cfg, heavy, 0, false)
	// Three relaunches push the retry task past the straggler cutoff
	// (2x the 8ms median on the paper's Spark profile) while the model
	// still fully explains its duration.
	retryDur := sim.ExpectedTaskTime(cfg, base, 3, false)

	r.SetPass(1)
	r.BeginJob("rdd", "collect(L1)")
	r.AddStage(StageSpan{
		Name:     "mixed",
		Overhead: cfg.StageOverhead,
		Makespan: cfg.StageOverhead + 4*baseDur,
		Tasks: []TaskSpan{
			// Four healthy baseline tasks pin the median at baseDur.
			{Index: 0, Node: 0, End: baseDur, Attempts: 1, Cost: base},
			{Index: 1, Node: 2, End: baseDur, Attempts: 1, Cost: base},
			{Index: 2, Node: 3, End: baseDur, Attempts: 1, Cost: base},
			{Index: 3, Node: 4, End: baseDur, Attempts: 1, Cost: base},
			// Environment: same metered cost, ran 4x its prediction — a
			// chaos-stretched node.
			{Index: 4, Node: 1, End: 4 * baseDur, Attempts: 1, Cost: base},
			// Data skew: 20x the cost, and the duration matches the model's
			// prediction exactly — a genuinely hot partition.
			{Index: 5, Node: 5, End: heavyDur, Attempts: 1, Cost: heavy},
			// Retries: duration equals the model's prediction including the
			// relaunches, so the excess over median is attempt overhead.
			{Index: 6, Node: 6, End: retryDur, Attempts: 4, Cost: base},
		},
	})
	r.EndJob(cfg.JobStartup)

	r.SetPass(2)
	r.BeginJob("rdd", "collect(L2)")
	r.AddStage(StageSpan{
		Name:     "even",
		Makespan: 2 * baseDur,
		Tasks: []TaskSpan{
			{Index: 0, Node: 0, End: baseDur, Attempts: 1, Cost: base},
			{Index: 1, Node: 1, End: baseDur, Attempts: 1, Cost: base},
		},
	})
	r.EndJob(cfg.JobStartup)
	return r
}

func TestAnalyzeCriticalPathSumsToMakespan(t *testing.T) {
	cfg := cluster.PaperSpark()
	r := analyzeRecorder(cfg)
	d := Analyze(r, AnalyzeOptions{Cluster: &cfg})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}

	var want time.Duration
	for _, job := range r.Jobs() {
		want += job.Duration()
	}
	if d.Makespan != want {
		t.Fatalf("makespan %v, want %v", d.Makespan, want)
	}
	if d.CriticalPathTotal != want {
		t.Fatalf("critical path total %v != makespan %v", d.CriticalPathTotal, want)
	}
	// 2 job-overhead steps + 2 stage steps.
	if len(d.CriticalPath) != 4 {
		t.Fatalf("critical path has %d steps: %+v", len(d.CriticalPath), d.CriticalPath)
	}
	overheads, stages := 0, 0
	for _, s := range d.CriticalPath {
		switch s.Kind {
		case "job-overhead":
			overheads++
		case "stage":
			stages++
			if s.Task < 0 {
				t.Errorf("stage step %q lost its critical task", s.Stage)
			}
		default:
			t.Errorf("unknown step kind %q", s.Kind)
		}
	}
	if overheads != 2 || stages != 2 {
		t.Fatalf("steps: %d overheads, %d stages", overheads, stages)
	}
	// The mixed stage's barrier is held by its slowest task (the data-skew
	// one — 20x cost dwarfs the 4x environment stretch here).
	if step := d.CriticalPath[1]; step.Stage != "mixed" || step.Task != 5 {
		t.Fatalf("mixed stage critical task = %+v", step)
	}
}

func TestAnalyzeStragglerAttributionWithCluster(t *testing.T) {
	cfg := cluster.PaperSpark()
	d := Analyze(analyzeRecorder(cfg), AnalyzeOptions{Cluster: &cfg})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	mixed := d.Stages[0]
	if mixed.Stage != "mixed" || mixed.Tasks != 7 {
		t.Fatalf("stage = %+v", mixed)
	}
	causes := map[int]string{}
	for _, s := range mixed.Stragglers {
		causes[s.Task] = s.Cause
		if s.Expected <= 0 || s.Slowdown <= 0 {
			t.Errorf("straggler %d missing model prediction: %+v", s.Task, s)
		}
	}
	want := map[int]string{
		4: CauseEnvironment,
		5: CauseDataSkew,
		6: CauseRetries,
	}
	for task, cause := range want {
		if causes[task] != cause {
			t.Errorf("task %d attributed %q, want %q (all: %v)", task, causes[task], cause, causes)
		}
	}
	if len(mixed.Stragglers) != len(want) {
		t.Errorf("stragglers = %+v, want exactly tasks 4, 5, 6", mixed.Stragglers)
	}
	if len(d.Stages[1].Stragglers) != 0 {
		t.Errorf("even stage grew stragglers: %+v", d.Stages[1].Stragglers)
	}
}

func TestAnalyzeStragglerAttributionWithoutCluster(t *testing.T) {
	cfg := cluster.PaperSpark()
	d := Analyze(analyzeRecorder(cfg), AnalyzeOptions{})
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	causes := map[int]string{}
	for _, s := range d.Stages[0].Stragglers {
		causes[s.Task] = s.Cause
	}
	// Without a performance model: retries are still identifiable from the
	// attempt count, heavy cost still reads as data skew, and a slow task
	// whose cost is ordinary must be the environment.
	want := map[int]string{
		4: CauseEnvironment,
		5: CauseDataSkew,
		6: CauseRetries,
	}
	for task, cause := range want {
		if causes[task] != cause {
			t.Errorf("task %d attributed %q, want %q", task, causes[task], cause)
		}
	}
}

func TestAnalyzeHotPartitions(t *testing.T) {
	cfg := cluster.PaperSpark()
	d := Analyze(analyzeRecorder(cfg), AnalyzeOptions{Cluster: &cfg})
	mixed := d.Stages[0]
	if len(mixed.Hot) != hotPartitions {
		t.Fatalf("hot = %+v, want %d entries", mixed.Hot, hotPartitions)
	}
	// Hottest first: the heavy partition, the environment straggler, then
	// the retried task.
	if mixed.Hot[0].Task != 5 || mixed.Hot[1].Task != 4 || mixed.Hot[2].Task != 6 {
		t.Fatalf("hot order = %+v", mixed.Hot)
	}
	var shares float64
	for _, h := range mixed.Hot {
		if h.Share <= 0 || h.Share > 1 {
			t.Errorf("share %v out of (0,1]", h.Share)
		}
		shares += h.Share
	}
	if shares > 1 {
		t.Errorf("top-%d shares sum to %v > 1", hotPartitions, shares)
	}
}

func TestGini(t *testing.T) {
	if g := gini([]float64{5, 5, 5, 5}); g != 0 {
		t.Errorf("uniform gini = %v, want 0", g)
	}
	// One task carries everything: G = (n-1)/n.
	if g, want := gini([]float64{0, 0, 0, 12}), 0.75; math.Abs(g-want) > 1e-12 {
		t.Errorf("one-hot gini = %v, want %v", g, want)
	}
	if g := gini(nil); g != 0 {
		t.Errorf("empty gini = %v", g)
	}
	if g := gini([]float64{0, 0}); g != 0 {
		t.Errorf("all-zero gini = %v", g)
	}
	mild := gini([]float64{4, 5, 6})
	harsh := gini([]float64{1, 1, 13})
	if !(mild > 0 && mild < harsh && harsh < 1) {
		t.Errorf("gini not ordered: mild %v, harsh %v", mild, harsh)
	}
}

func TestAnalyzeEmptyAndNil(t *testing.T) {
	for _, r := range []*Recorder{nil, New()} {
		d := Analyze(r, AnalyzeOptions{})
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if d.Makespan != 0 || len(d.CriticalPath) != 0 || len(d.Stages) != 0 {
			t.Fatalf("empty analysis = %+v", d)
		}
	}
	if err := (*Diagnosis)(nil).Validate(); err == nil {
		t.Fatal("nil diagnosis validated")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cfg := cluster.PaperSpark()
	fresh := func() *Diagnosis { return Analyze(analyzeRecorder(cfg), AnalyzeOptions{Cluster: &cfg}) }

	d := fresh()
	d.Makespan += time.Second
	if err := d.Validate(); err == nil {
		t.Error("makespan mismatch not caught")
	}
	d = fresh()
	d.CriticalPath = d.CriticalPath[1:]
	if err := d.Validate(); err == nil {
		t.Error("dropped step not caught")
	}
	d = fresh()
	d.Stages[0].Gini = 1.5
	if err := d.Validate(); err == nil {
		t.Error("out-of-range gini not caught")
	}
	d = fresh()
	d.Stages[0].Stragglers[0].Cause = "gremlins"
	if err := d.Validate(); err == nil {
		t.Error("unknown cause not caught")
	}
}

func TestWriteDiagnosisRendersAttribution(t *testing.T) {
	cfg := cluster.PaperSpark()
	d := Analyze(analyzeRecorder(cfg), AnalyzeOptions{Cluster: &cfg})
	var buf bytes.Buffer
	if err := WriteDiagnosis(&buf, d); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"makespan", "critical path", "job overhead", "stage mixed",
		"hot:", "straggler:", CauseEnvironment, CauseDataSkew, CauseRetries,
		"cost-predicted",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diagnosis text missing %q:\n%s", want, out)
		}
	}
}

func TestDiagnosisJSONRoundTrip(t *testing.T) {
	cfg := cluster.PaperSpark()
	d := Analyze(analyzeRecorder(cfg), AnalyzeOptions{Cluster: &cfg})
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Diagnosis
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped diagnosis invalid: %v", err)
	}
	if back.Makespan != d.Makespan || len(back.Stages) != len(d.Stages) {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
