package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"yafim/internal/apriori"
	"yafim/internal/cluster"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/obs"
	"yafim/internal/rddeclat"
	"yafim/internal/son"
	"yafim/internal/yafim"
)

// VariantResult is one strategy's outcome in the one-phase vs k-phase
// comparison the paper's related-work section (§III) discusses: SPC (one
// job per pass), FPC/DPC (combined passes), SON (one-phase: two jobs
// total), and YAFIM.
type VariantResult struct {
	Name     string
	Jobs     int
	Duration time.Duration
	// Skipped notes why a strategy was not run (e.g. SON's local-support
	// blow-up on low-support workloads).
	Skipped string
}

// Variants is the full comparison for one benchmark.
type Variants struct {
	Dataset string
	Results []VariantResult
}

// RunVariants mines the benchmark with every strategy and verifies all of
// them produce identical frequent itemsets.
func RunVariants(ctx context.Context, b Benchmark, env Env) (*Variants, error) {
	db, err := b.Gen(env.Scale, env.Seed)
	if err != nil {
		return nil, err
	}
	out := &Variants{Dataset: b.Name}
	var reference *apriori.Result

	check := func(name string, res *apriori.Result, jobs int, d time.Duration) error {
		if reference == nil {
			reference = res
		} else if !res.Equal(reference) {
			return fmt.Errorf("experiments: variant %s disagrees on %s", name, b.Name)
		}
		out.Results = append(out.Results, VariantResult{Name: name, Jobs: jobs, Duration: d})
		return nil
	}

	// YAFIM on the Spark profile.
	yTrace, yCtx, err := RunYAFIM(ctx, db, b.Support, env.Spark, env.tasks(env.Spark), yafim.Config{})
	if err != nil {
		return nil, fmt.Errorf("experiments: variants %s: yafim: %w", b.Name, err)
	}
	if err := check("YAFIM", yTrace.Result, len(yCtx.Reports()), yTrace.TotalDuration()); err != nil {
		return nil, err
	}

	// Dist-Eclat on the Spark profile: vertical mining in a fixed number of
	// jobs.
	dTrace, dCtx, err := RunDistEclat(ctx, db, b.Support, env.Spark, env.tasks(env.Spark))
	if err != nil {
		return nil, fmt.Errorf("experiments: variants %s: disteclat: %w", b.Name, err)
	}
	if err := check("Dist-Eclat", dTrace.Result, len(dCtx.Reports()), dTrace.TotalDuration()); err != nil {
		return nil, err
	}

	// RDD-Eclat on the Spark profile: equivalence-class-partitioned bitset
	// intersection.
	rTrace, rCtx, err := RunRDDEclat(ctx, db, b.Support, env.Spark, env.tasks(env.Spark), rddeclat.Config{})
	if err != nil {
		return nil, fmt.Errorf("experiments: variants %s: rddeclat: %w", b.Name, err)
	}
	if err := check("RDD-Eclat", rTrace.Result, len(rCtx.Reports()), rTrace.TotalDuration()); err != nil {
		return nil, err
	}

	// The MapReduce family on the Hadoop profile.
	for _, v := range []mrapriori.Variant{mrapriori.SPC, mrapriori.FPC, mrapriori.DPC} {
		trace, runner, err := RunMRApriori(ctx, db, b.Support, env.Hadoop, env.tasks(env.Hadoop),
			mrapriori.Config{Variant: v}, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: variants %s: %v: %w", b.Name, v, err)
		}
		if err := check(v.String(), trace.Result, len(runner.Reports()), trace.TotalDuration()); err != nil {
			return nil, err
		}
	}

	// SON, the one-phase algorithm (two jobs total). Its local mining runs
	// at the global relative support on each chunk; when that translates to
	// an absolute local threshold of only a few transactions, the local
	// candidate sets explode combinatorially — the exact §III criticism of
	// one-phase algorithms — so the experiment reports it as impractical
	// rather than running for hours.
	chunk := db.Len() / env.tasks(env.Hadoop)
	if float64(chunk)*b.Support < 8 {
		out.Results = append(out.Results, VariantResult{
			Name:    "SON",
			Skipped: fmt.Sprintf("local threshold %.1f tx/chunk too low: one-phase candidate blow-up", float64(chunk)*b.Support),
		})
		return out, nil
	}
	sonTrace, sonRunner, err := RunSON(ctx, db, b.Support, env.Hadoop, env.tasks(env.Hadoop), son.Config{}, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: variants %s: son: %w", b.Name, err)
	}
	if err := check("SON", sonTrace.Result, len(sonRunner.Reports()), sonTrace.TotalDuration()); err != nil {
		return nil, err
	}
	return out, nil
}

// RunSON stages db into a fresh DFS and mines it with the one-phase SON
// algorithm on the given cluster. rec (may be nil) captures telemetry.
func RunSON(ctx context.Context, db *itemset.DB, support float64, cfg cluster.Config, tasks int,
	mineCfg son.Config, rec *obs.Recorder) (*apriori.Trace, *mapreduce.Runner, error) {
	runner, fs, path, err := stageMR(db, cfg, rec)
	if err != nil {
		return nil, nil, err
	}
	mineCfg.MinSupport = support
	if mineCfg.NumMapTasks == 0 {
		mineCfg.NumMapTasks = tasks
	}
	trace, err := son.MineContext(ctx, runner, fs, path, "/work", mineCfg)
	if err != nil {
		return nil, nil, err
	}
	return trace, runner, nil
}

// WriteVariants renders the strategy comparison.
func WriteVariants(w io.Writer, v *Variants) {
	fmt.Fprintf(w, "%s: one-phase vs k-phase strategies\n", v.Dataset)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tjobs\ttotal")
	for _, r := range v.Results {
		if r.Skipped != "" {
			fmt.Fprintf(tw, "%s\t-\tskipped: %s\n", r.Name, r.Skipped)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\n", r.Name, r.Jobs, fmtDur(r.Duration))
	}
	tw.Flush()
}
