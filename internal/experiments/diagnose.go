package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"yafim/internal/apriori"
	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/dist"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/obs"
	"yafim/internal/rdd"
	"yafim/internal/yafim"
)

// DiagnosedRun is one engine's mining run with its full diagnosis: the span
// recorder, the analyzed critical path and skew report, and the engine's
// total virtual duration for cross-checking.
type DiagnosedRun struct {
	Dataset   string
	Engine    string
	Trace     *apriori.Trace
	Recorder  *obs.Recorder
	Diagnosis *obs.Diagnosis
	Total     time.Duration
}

// RunDiagnosed mines the benchmark with both engines, analyzes each run,
// and verifies the analyses are internally consistent: results agree across
// engines, each critical path sums to its makespan, and the analyzed
// makespan matches the engine's own virtual clock. plan optionally injects
// chaos into both engines (nil = clean run). onRecorder, when non-nil, is
// called with each engine's live recorder just before its run starts, so a
// serving surface can expose the in-flight run.
func RunDiagnosed(ctx context.Context, b Benchmark, env Env, plan *chaos.Plan,
	onRecorder func(engine string, rec *obs.Recorder)) ([]DiagnosedRun, error) {
	db, err := b.Gen(env.Scale, env.Seed)
	if err != nil {
		return nil, err
	}

	yRec := obs.New()
	if onRecorder != nil {
		onRecorder("yafim", yRec)
	}
	yOpts := []rdd.Option{rdd.WithRecorder(yRec)}
	if plan != nil {
		// A diagnosis run wants the injected faults visible in the schedule,
		// not speculated away: disable mitigation so straggler tasks keep
		// their stretched durations and the analyzer has something to
		// attribute.
		yOpts = append(yOpts, rdd.WithChaos(plan), rdd.WithResilience(chaos.Resilience{}))
	}
	yTrace, yCtx, err := RunYAFIM(ctx, db, b.Support, env.Spark, env.tasks(env.Spark),
		yafim.Config{}, yOpts...)
	if err != nil {
		return nil, fmt.Errorf("experiments: diagnose %s: yafim: %w", b.Name, err)
	}

	mRec := obs.New()
	if onRecorder != nil {
		onRecorder("mapreduce", mRec)
	}
	mTrace, mRunner, err := runMRDiagnosed(ctx, db, b.Support, env.Hadoop, env.tasks(env.Hadoop),
		mRec, plan)
	if err != nil {
		return nil, fmt.Errorf("experiments: diagnose %s: mapreduce: %w", b.Name, err)
	}
	if !yTrace.Result.Equal(mTrace.Result) {
		return nil, fmt.Errorf("experiments: diagnose %s: engines disagree", b.Name)
	}

	runs := []DiagnosedRun{
		{Dataset: b.Name, Engine: "yafim", Trace: yTrace, Recorder: yRec,
			Diagnosis: obs.Analyze(yRec, obs.AnalyzeOptions{Cluster: &env.Spark}),
			Total:     yCtx.TotalDuration()},
		{Dataset: b.Name, Engine: "mapreduce", Trace: mTrace, Recorder: mRec,
			Diagnosis: obs.Analyze(mRec, obs.AnalyzeOptions{Cluster: &env.Hadoop}),
			Total:     mRunner.TotalDuration()},
	}
	for _, r := range runs {
		if err := r.Diagnosis.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: diagnose %s: %s: %w", b.Name, r.Engine, err)
		}
		// The analyzed makespan must equal the engine's own virtual clock:
		// the diagnosis layer reconstructs time from spans and may not
		// disagree with the ledger-driven schedule by a nanosecond.
		if r.Diagnosis.Makespan != r.Total {
			return nil, fmt.Errorf("experiments: diagnose %s: %s: analyzed makespan %v != engine total %v",
				b.Name, r.Engine, r.Diagnosis.Makespan, r.Total)
		}
	}
	return runs, nil
}

// runMRDiagnosed is RunMRApriori with mitigation disabled on chaotic runs:
// same staging and recorder wiring, but speculation, blacklisting and
// re-replication are off so injected stragglers keep their stretched task
// durations instead of being rescued.
func runMRDiagnosed(ctx context.Context, db *itemset.DB, support float64, cfg cluster.Config,
	tasks int, rec *obs.Recorder, plan *chaos.Plan) (*apriori.Trace, *mapreduce.Runner, error) {
	runner, fs, path, err := stageMR(db, cfg, rec)
	if err != nil {
		return nil, nil, err
	}
	if plan != nil {
		runner.SetResilience(chaos.Resilience{})
		if err := runner.SetChaos(plan); err != nil {
			return nil, nil, err
		}
	}
	trace, err := mrapriori.Mine(ctx, dist.NewLocal(runner, fs), path,
		mrapriori.Config{MinSupport: support, NumMapTasks: tasks}, rec)
	if err != nil {
		return nil, nil, err
	}
	return trace, runner, nil
}

// WriteDiagTable renders the per-engine critical-path and skew comparison:
// for each engine, the makespan, the dominant critical-path step, the worst
// stage Gini, and straggler counts by attributed cause.
func WriteDiagTable(w io.Writer, runs []DiagnosedRun) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "engine\tmakespan\tcritical steps\ttop step\ttop share\tworst gini\tstragglers\tenv\tretries\tdata-skew")
	for _, r := range runs {
		d := r.Diagnosis
		var top obs.CriticalStep
		for _, s := range d.CriticalPath {
			if s.Duration > top.Duration {
				top = s
			}
		}
		topName := top.Stage
		if top.Kind == "job-overhead" {
			topName = top.Job + " overhead"
		}
		share := 0.0
		if d.Makespan > 0 {
			share = 100 * float64(top.Duration) / float64(d.Makespan)
		}
		worstGini := 0.0
		var env, retries, skew int
		for _, st := range d.Stages {
			if st.Gini > worstGini {
				worstGini = st.Gini
			}
			for _, s := range st.Stragglers {
				switch s.Cause {
				case obs.CauseEnvironment:
					env++
				case obs.CauseRetries:
					retries++
				case obs.CauseDataSkew:
					skew++
				}
			}
		}
		fmt.Fprintf(tw, "%s\t%v\t%d\t%s\t%.1f%%\t%.2f\t%d\t%d\t%d\t%d\n",
			r.Engine, d.Makespan.Round(time.Millisecond), len(d.CriticalPath),
			topName, share, worstGini, env+retries+skew, env, retries, skew)
	}
	return tw.Flush()
}
