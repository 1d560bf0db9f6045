package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"yafim/internal/apriori"
	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/mrapriori"
	"yafim/internal/obs"
	"yafim/internal/rdd"
	"yafim/internal/rddeclat"
	"yafim/internal/sim"
	"yafim/internal/yafim"
)

// TestSimTraceGolden pins the virtual trace of both sim engines: YAFIM and
// RDD-Eclat on the RDD engine, SPC on the MapReduce engine, each clean,
// under chaos.DefaultPlan(7), and under that plan plus a crash of the last
// node at 40% of the engine's clean total. Per run the golden holds the pass
// stats, every job report's stages (name, tasks, makespan), the full
// counters and the sha256 of the journal. A refactor of the engines' task,
// fault or schedule machinery must leave it unchanged; regenerate with
// -update only for an intended change of the cost model.
func TestSimTraceGolden(t *testing.T) {
	env := testEnv()
	b, err := FindBenchmark("MushRoom")
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Gen(env.Scale, env.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Local()
	const tasks = 16
	bg := context.Background()
	rddRun := func(mine func(opts ...rdd.Option) (*apriori.Trace, *rdd.Context, error)) func(*obs.Recorder, *chaos.Plan) (*apriori.Trace, []sim.JobReport, error) {
		return func(rec *obs.Recorder, plan *chaos.Plan) (*apriori.Trace, []sim.JobReport, error) {
			opts := []rdd.Option{rdd.WithRecorder(rec)}
			if plan != nil {
				opts = append(opts, rdd.WithChaos(plan))
			}
			trace, ctx, err := mine(opts...)
			if err != nil {
				return nil, nil, err
			}
			return trace, ctx.Reports(), nil
		}
	}
	engines := []struct {
		name string
		run  func(*obs.Recorder, *chaos.Plan) (*apriori.Trace, []sim.JobReport, error)
	}{
		{"yafim", rddRun(func(opts ...rdd.Option) (*apriori.Trace, *rdd.Context, error) {
			return RunYAFIM(bg, db, b.Support, cfg, tasks, yafim.Config{}, opts...)
		})},
		{"rddeclat", rddRun(func(opts ...rdd.Option) (*apriori.Trace, *rdd.Context, error) {
			return RunRDDEclat(bg, db, b.Support, cfg, tasks, rddeclat.Config{}, opts...)
		})},
		{"spc", func(rec *obs.Recorder, plan *chaos.Plan) (*apriori.Trace, []sim.JobReport, error) {
			trace, runner, err := RunMRApriori(bg, db, b.Support, cfg, tasks, mrapriori.Config{}, rec, plan)
			if err != nil {
				return nil, nil, err
			}
			return trace, runner.Reports(), nil
		}},
	}

	var buf bytes.Buffer
	for _, e := range engines {
		var clean time.Duration
		for _, mode := range []string{"clean", "chaos", "crash"} {
			var plan *chaos.Plan
			switch mode {
			case "chaos":
				plan = crashPlan(ChaosParams{Seed: 7}, cfg.Nodes, clean)
			case "crash":
				plan = crashPlan(DefaultChaosParams(7), cfg.Nodes, clean)
			}
			rec := obs.New()
			trace, reports, err := e.run(rec, plan)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.name, mode, err)
			}
			if mode == "clean" {
				clean = trace.TotalDuration()
			}
			fmt.Fprintf(&buf, "== %s/%s frequent=%d\n", e.name, mode, trace.Result.NumFrequent())
			for _, p := range trace.Passes {
				fmt.Fprintf(&buf, "pass %+v\n", p)
			}
			for _, r := range reports {
				fmt.Fprintf(&buf, "job %s overhead=%v\n", r.Name, r.Overhead)
				for _, s := range r.Stages {
					fmt.Fprintf(&buf, "  stage %s tasks=%d makespan=%v\n", s.Name, s.Tasks, s.Makespan)
				}
			}
			fmt.Fprintf(&buf, "counters %+v\n", rec.Counters())
			var journal bytes.Buffer
			if err := obs.WriteJournal(&journal, rec); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "journal sha256 %x\n", sha256.Sum256(journal.Bytes()))
		}
	}

	golden := filepath.Join("testdata", "simtrace_MushRoom.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("sim trace drifted from golden (regenerate with -update if intended):\n got:\n%s\nwant:\n%s",
			buf.String(), want)
	}
}
