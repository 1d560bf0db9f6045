package mapreduce

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/dfs"
	"yafim/internal/obs"
	"yafim/internal/sim"
)

// runWordCount executes the canonical word-count job on a fresh DFS and
// returns the sorted output, counters, report and runner.
func runWordCount(t *testing.T, configure func(*Runner)) ([]KV, *Counters, *sim.JobReport, *Runner) {
	t.Helper()
	return runWordCountOn(t, corpus, configure)
}

// runWordCountOn is runWordCount with a custom input corpus, for tests that
// need more map tasks than the three-line default produces.
func runWordCountOn(t *testing.T, content string, configure func(*Runner)) ([]KV, *Counters, *sim.JobReport, *Runner) {
	t.Helper()
	fs := setupFS(t, 16, content)
	r := NewRunnerMust(t, cluster.Local(), fs)
	if configure != nil {
		configure(r)
	}
	fs.SetRecorder(r.rec)
	rep, counters, err := r.RunContext(context.Background(), wordCountJob(false))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ReadOutput(fs, "/out/wc", nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, counters, rep, r
}

func outputsEqual(a, b []KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestChaosTaskFailuresPreserveOutput(t *testing.T) {
	want, wantCtrs, _, _ := runWordCount(t, nil)
	rec := obs.New()
	got, gotCtrs, _, _ := runWordCount(t, func(r *Runner) {
		r.SetRecorder(rec)
		if err := r.SetChaos(&chaos.Plan{Seed: 7, TaskFailProb: 0.5}); err != nil {
			t.Fatal(err)
		}
	})
	if !outputsEqual(got, want) {
		t.Fatal("output under injected task failures differs from fault-free run")
	}
	if *gotCtrs != *wantCtrs {
		t.Fatalf("retries changed record counters:\nchaos: %+v\nclean: %+v", gotCtrs, wantCtrs)
	}
	c := rec.Counters()
	if c.TaskRetries == 0 {
		t.Fatal("50% failure probability produced no retries")
	}
	if c.WastedCost == (sim.Cost{}) {
		t.Fatal("chaos failures strike after the work, so retries must waste cost")
	}
}

func TestChaosFetchFailureReexecutesMaps(t *testing.T) {
	want, _, refRep, _ := runWordCount(t, nil)
	rec := obs.New()
	got, _, rep, _ := runWordCount(t, func(r *Runner) {
		r.SetRecorder(rec)
		if err := r.SetChaos(&chaos.Plan{Seed: 5, FetchFailProb: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if !outputsEqual(got, want) {
		t.Fatal("output under fetch failures differs from fault-free run")
	}
	c := rec.Counters()
	if c.FetchFailures == 0 || c.StagesRerun == 0 {
		t.Fatalf("fetch failures not recorded: %+v", c)
	}
	// Recovery re-charges whole map tasks, so the job must get slower.
	if rep.Duration() <= refRep.Duration() {
		t.Fatalf("fetch-failure recovery was free: %v vs fault-free %v",
			rep.Duration(), refRep.Duration())
	}
}

// TestChaosNodeCrashRerunsLostMaps is the Runner node-loss path: a crash
// between the map and reduce stages kills a node that ran map tasks; the
// engine re-executes those tasks as a recovery stage (without re-running
// mapper closures) and the DFS re-replicates the node's blocks.
func TestChaosNodeCrashRerunsLostMaps(t *testing.T) {
	refRec := obs.New()
	want, wantCtrs, refRep, _ := runWordCount(t, func(r *Runner) { r.SetRecorder(refRec) })

	// Pick a node the fault-free schedule actually placed a map task on, and
	// a crash time strictly inside the map stage's makespan.
	mapStage := refRec.Jobs()[0].Stages[0]
	node := mapStage.Tasks[0].Node
	crashAt := refRep.Overhead + mapStage.Makespan/2

	rec := obs.New()
	got, gotCtrs, rep, r := runWordCount(t, func(r *Runner) {
		r.SetRecorder(rec)
		// Disable speculation so the chaotic map schedule matches the
		// fault-free one and the crash lands where we aimed it.
		r.SetResilience(chaos.Resilience{ReReplicate: true})
		if err := r.SetChaos(&chaos.Plan{Seed: 3,
			Crash: &chaos.NodeCrash{Node: node, At: crashAt}}); err != nil {
			t.Fatal(err)
		}
	})
	if !outputsEqual(got, want) {
		t.Fatal("output after node crash differs from fault-free run")
	}
	if *gotCtrs != *wantCtrs {
		t.Fatalf("recovery re-ran mapper closures:\nchaos: %+v\nclean: %+v", gotCtrs, wantCtrs)
	}
	var names []string
	for _, s := range rep.Stages {
		names = append(names, s.Name)
	}
	if len(rep.Stages) != 3 || rep.Stages[1].Name != "wordcount:map-recovery" {
		t.Fatalf("no map-recovery stage after mid-job crash: %v", names)
	}
	if rep.Duration() <= refRep.Duration() {
		t.Fatalf("crash recovery was free: %v vs fault-free %v",
			rep.Duration(), refRep.Duration())
	}
	c := rec.Counters()
	if c.StagesRerun == 0 {
		t.Fatalf("recovery stage not counted: %+v", c)
	}
	if c.ReReplicatedBlocks == 0 {
		t.Fatalf("dead node's blocks not re-replicated: %+v", c)
	}
	// The reduce stage must not schedule anything on the dead node.
	for _, task := range rec.Jobs()[0].Stages[len(rec.Jobs()[0].Stages)-1].Tasks {
		if task.Node == node {
			t.Fatalf("reduce task scheduled on dead node %d", node)
		}
	}
	if r.drv.ChaosPlan() == nil {
		t.Fatal("ChaosPlan lost the attached plan")
	}
}

func TestChaosDeterministicAcrossRunners(t *testing.T) {
	plan := &chaos.Plan{
		Seed:          42,
		TaskFailProb:  0.3,
		FetchFailProb: 0.4,
		Stragglers:    []chaos.Straggler{{Node: 2, Factor: 3}},
	}
	rec1, rec2 := obs.New(), obs.New()
	out1, _, rep1, _ := runWordCount(t, func(r *Runner) {
		r.SetRecorder(rec1)
		if err := r.SetChaos(plan); err != nil {
			t.Fatal(err)
		}
	})
	out2, _, rep2, _ := runWordCount(t, func(r *Runner) {
		r.SetRecorder(rec2)
		if err := r.SetChaos(plan); err != nil {
			t.Fatal(err)
		}
	})
	if !outputsEqual(out1, out2) {
		t.Fatal("identical seeds produced different output")
	}
	if rep1.Duration() != rep2.Duration() {
		t.Fatalf("identical seeds produced different makespans: %v vs %v",
			rep1.Duration(), rep2.Duration())
	}
	if c1, c2 := rec1.Counters(), rec2.Counters(); c1 != c2 {
		t.Fatalf("identical seeds produced different counters:\n%+v\n%+v", c1, c2)
	}
	var t1, t2 bytes.Buffer
	if err := obs.WriteChromeTrace(&t1, rec1); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(&t2, rec2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("identical seeds produced different Chrome traces")
	}
}

func TestChaosStragglerSpeculationMR(t *testing.T) {
	plan := &chaos.Plan{Seed: 1, Stragglers: []chaos.Straggler{{Node: 0, Factor: 10}}}
	// Enough map tasks that the straggler node runs only a minority of them,
	// keeping the stage's median task duration at full speed.
	big := strings.Repeat(corpus, 8)
	rec := obs.New()
	_, _, specRep, _ := runWordCountOn(t, big, func(r *Runner) {
		r.SetRecorder(rec)
		if err := r.SetChaos(plan); err != nil {
			t.Fatal(err)
		}
	})
	_, _, plainRep, _ := runWordCountOn(t, big, func(r *Runner) {
		r.SetResilience(chaos.Resilience{})
		if err := r.SetChaos(plan); err != nil {
			t.Fatal(err)
		}
	})
	c := rec.Counters()
	if c.SpeculativeLaunches == 0 || c.SpeculativeWins == 0 {
		t.Fatalf("no speculation against a 10x straggler: %+v", c)
	}
	if specRep.Duration() >= plainRep.Duration() {
		t.Fatalf("speculation did not help: %v (spec) vs %v (none)",
			specRep.Duration(), plainRep.Duration())
	}
}

func TestChaosBlacklistingMR(t *testing.T) {
	rec := obs.New()
	want, _, _, _ := runWordCount(t, nil)
	got, _, _, _ := runWordCount(t, func(r *Runner) {
		r.SetRecorder(rec)
		if err := r.SetChaos(&chaos.Plan{Seed: 6, TaskFailProb: 0.8}); err != nil {
			t.Fatal(err)
		}
	})
	if !outputsEqual(got, want) {
		t.Fatal("output under heavy failures differs from fault-free run")
	}
	if rec.Counters().NodesBlacklisted == 0 {
		t.Fatal("80% failure probability never blacklisted a node")
	}
}

func TestChaosNeverFailsJobsMR(t *testing.T) {
	want, _, _, _ := runWordCount(t, nil)
	got, _, _, _ := runWordCount(t, func(r *Runner) {
		if err := r.SetChaos(&chaos.Plan{Seed: 13,
			TaskFailProb: 1, FetchFailProb: 1, BlockReadFailProb: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if !outputsEqual(got, want) {
		t.Fatal("maximum chaos changed the output")
	}
}

func TestSetChaosRejectsInvalidPlan(t *testing.T) {
	fs := setupFS(t, 16, corpus)
	r := NewRunnerMust(t, cluster.Local(), fs)
	if err := r.SetChaos(&chaos.Plan{TaskFailProb: 2}); err == nil {
		t.Fatal("invalid chaos plan accepted")
	}
}

// TestChaosWastedWorkReachesMakespan pins the retry accounting of both
// stages: a chaos-killed attempt dies after doing its work and its retry
// runs after it, so the wasted work must lengthen the stage, not only the
// WastedCost counter. With every task failing its first three attempts on a
// one-core cluster, each stage body takes four times the fault-free one
// (each relaunch costs one more task launch, as each attempt did).
func TestChaosWastedWorkReachesMakespan(t *testing.T) {
	cfg := cluster.Local()
	cfg.Nodes, cfg.CoresPerNode = 1, 1
	run := func(plan *chaos.Plan) *sim.JobReport {
		fs := dfs.New(1, dfs.WithBlockSize(16), dfs.WithReplication(1))
		if err := fs.WriteFile("/in/data.txt", []byte(corpus), nil); err != nil {
			t.Fatal(err)
		}
		r := NewRunnerMust(t, cfg, fs)
		if plan != nil {
			r.SetResilience(chaos.Resilience{})
			if err := r.SetChaos(plan); err != nil {
				t.Fatal(err)
			}
		}
		rep, _, err := r.RunContext(context.Background(), wordCountJob(false))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	clean := run(nil)
	chaotic := run(&chaos.Plan{Seed: 1, TaskFailProb: 1})
	for i, st := range clean.Stages {
		body := st.Makespan - cfg.StageOverhead
		got := chaotic.Stages[i].Makespan - cfg.StageOverhead
		// Each task's duration rounds to the nanosecond on its own.
		if want := 4 * body; got < want-time.Microsecond {
			t.Errorf("%s: chaotic stage body %v, want 4 x fault-free %v = %v",
				st.Name, got, body, want)
		}
	}
}
