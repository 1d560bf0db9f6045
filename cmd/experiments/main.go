// Command experiments regenerates the paper's evaluation: Table I and
// Figures 3-6, the headline average-speedup summary, the engine matrix and
// the §IV design ablations. Every experiment verifies that YAFIM and the
// MapReduce implementation find identical frequent itemsets before
// reporting timings.
//
// Usage:
//
//	experiments -exp all              # every table, paper-scale datasets
//	experiments -exp fig3 -dataset Chess
//	experiments -exp fig5 -scale 0.2  # quicker, scaled-down datasets
//	experiments -exp obs -dataset Chess -tracedir traces
//
// "all" leaves out the opt-in runs check, obs, chaos and diag. The obs
// experiment runs each benchmark once per parallel engine with a telemetry
// recorder attached, prints the per-stage skew table and counter totals,
// and (with -tracedir) writes a Chrome trace-event JSON file per run. An
// unknown -exp fails, listing the known names, before anything runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"yafim/internal/chaos"
	"yafim/internal/exec"
	"yafim/internal/experiments"
	"yafim/internal/obs"
)

func main() {
	// SIGINT/SIGTERM cancel the context; the running experiment stops at its
	// next task boundary and the error propagates back here. A second signal
	// kills the process immediately (signal.NotifyContext restores default
	// handling once the context is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if exec.IsCancellation(err) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted:", err)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// experimentTable lists every -exp value. "all" runs the tables in this
// order, each under a "=== name ===" header. It leaves out the opt-in runs,
// which print their own headers: obs, chaos and diag rerun benchmarks
// purely for telemetry, fault recovery or diagnosis, which would multiply
// the cost of a full sweep, and check asserts the paper's claims.
var experimentTable = []struct {
	name  string
	inAll bool
	run   func(*session) error
}{
	{"table1", true, (*session).table1},
	{"fig3", true, (*session).fig3},
	{"fig4", true, (*session).fig4},
	{"fig5", true, (*session).fig5},
	{"fig6", true, (*session).fig6},
	{"summary", true, (*session).summary},
	{"matrix", true, (*session).matrix},
	{"ablations", true, (*session).ablations},
	{"check", false, (*session).check},
	{"obs", false, (*session).obs},
	{"chaos", false, (*session).chaos},
	{"diag", false, (*session).diag},
}

// expNames lists the -exp values: all and the tables it runs, then the
// opt-in runs.
func expNames() string {
	var tables, optIn []string
	for _, e := range experimentTable {
		if e.inAll {
			tables = append(tables, e.name)
		} else {
			optIn = append(optIn, e.name)
		}
	}
	return "all, " + strings.Join(tables, ", ") + "; opt-in: " + strings.Join(optIn, ", ")
}

// session is one command line's parsed flags, environment and output,
// shared by every experiment it runs.
type session struct {
	ctx     context.Context
	out     io.Writer
	env     experiments.Env
	benches []experiments.Benchmark // every paper benchmark, or the -dataset one

	dataset, csvDir, traceDir string
	maxRepl                   int
	chart, diagChaos          bool
	chaosSeed                 int64
	crashFrac                 float64

	// served is what -listen exposes: whichever instrumented run most
	// recently started. The atomic pointer lets diag runs swap recorders
	// without restarting the listener, and a scrape before the first run
	// serves empty documents.
	served atomic.Pointer[servedRun]
}

// run is the whole command behind a testable seam: flags come from args
// and output goes to the writers. An unknown -exp fails before anything
// runs.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	s := &session{ctx: ctx, out: stdout, env: experiments.DefaultEnv()}
	var (
		exp    = fs.String("exp", "all", "experiment to run: "+expNames())
		listen = fs.String("listen", "", "serve the in-flight run's /metrics, /diag, /journal and /debug/pprof/ on this address")
	)
	fs.StringVar(&s.dataset, "dataset", "", "restrict every per-benchmark table to one dataset")
	fs.Float64Var(&s.env.Scale, "scale", 1.0, "dataset scale (1.0 = paper size)")
	fs.Int64Var(&s.env.Seed, "seed", 2014, "data generation seed")
	fs.IntVar(&s.maxRepl, "maxrepl", 6, "fig4: largest replication factor")
	fs.IntVar(&s.env.Tasks, "tasks", 0, "task-granularity hint (0 = 2x cluster cores)")
	fs.BoolVar(&s.chart, "chart", false, "also render each figure as an ASCII chart")
	fs.StringVar(&s.csvDir, "csvdir", "", "also write each figure's series as CSV files here")
	fs.StringVar(&s.traceDir, "tracedir", "", "obs: write each instrumented run's Chrome trace JSON here")
	fs.Int64Var(&s.chaosSeed, "chaosseed", 7, "chaos: fault-plan seed (identical seeds reproduce identical runs)")
	fs.Float64Var(&s.crashFrac, "crashfrac", 0.4, "chaos: crash a node at this fraction of the fault-free run (0 = no crash)")
	fs.BoolVar(&s.diagChaos, "diagchaos", false, "diag: inject a seeded node straggler so the diagnosis has environment stragglers to attribute")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	known := *exp == "all"
	for _, e := range experimentTable {
		known = known || e.name == *exp
	}
	if !known {
		return fmt.Errorf("unknown -exp %q (want %s)", *exp, expNames())
	}

	s.benches = experiments.PaperBenchmarks()
	if s.dataset != "" {
		b, err := experiments.FindBenchmark(s.dataset)
		if err != nil {
			return err
		}
		s.benches = []experiments.Benchmark{b}
	}

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("-listen: %w", err)
		}
		fmt.Fprintf(stderr, "experiments: serving diagnostics on http://%s/\n", ln.Addr())
		srv := &http.Server{Handler: obs.HandlerFunc(func() (*obs.Recorder, obs.AnalyzeOptions) {
			if r := s.served.Load(); r != nil {
				return r.rec, r.opts
			}
			return nil, obs.AnalyzeOptions{}
		})}
		go srv.Serve(ln)
		defer srv.Close()
	}

	start := time.Now()
	for _, e := range experimentTable {
		if *exp != e.name && !(*exp == "all" && e.inAll) {
			continue
		}
		if e.inAll {
			fmt.Fprintf(stdout, "=== %s ===\n", e.name)
		}
		if err := e.run(s); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if e.inAll {
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintf(stdout, "done in %v (real time)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func (s *session) table1() error {
	rows, err := experiments.RunTable1(s.env)
	if err != nil {
		return err
	}
	experiments.WriteTable1(s.out, rows)
	return nil
}

// writeCSV writes one figure's series to the named file under -csvdir, and
// nothing without it.
func (s *session) writeCSV(name string, write func(io.Writer) error) error {
	if s.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(s.csvDir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (s *session) fig3() error {
	for _, b := range s.benches {
		c, err := experiments.RunComparison(s.ctx, b, s.env)
		if err != nil {
			return err
		}
		experiments.WriteComparison(s.out, c)
		if s.chart {
			experiments.ComparisonChart(s.out, c)
		}
		if err := s.writeCSV("fig3_"+b.Name+".csv", func(w io.Writer) error {
			return experiments.ComparisonCSV(w, c)
		}); err != nil {
			return err
		}
		fmt.Fprintln(s.out)
	}
	return nil
}

func (s *session) fig4() error {
	var reps []int
	for r := 1; r <= s.maxRepl; r++ {
		reps = append(reps, r)
	}
	for _, b := range s.benches {
		sz, err := experiments.RunSizeup(s.ctx, b, s.env, reps)
		if err != nil {
			return err
		}
		experiments.WriteSizeup(s.out, sz)
		if s.chart {
			experiments.SizeupChart(s.out, sz)
		}
		if err := s.writeCSV("fig4_"+b.Name+".csv", func(w io.Writer) error {
			return experiments.SizeupCSV(w, sz)
		}); err != nil {
			return err
		}
		fmt.Fprintln(s.out)
	}
	return nil
}

func (s *session) fig5() error {
	for _, b := range s.benches {
		sp, err := experiments.RunSpeedup(s.ctx, b, s.env, []int{4, 6, 8, 10, 12}, 6)
		if err != nil {
			return err
		}
		experiments.WriteSpeedup(s.out, sp)
		if s.chart {
			experiments.SpeedupChart(s.out, sp)
		}
		if err := s.writeCSV("fig5_"+b.Name+".csv", func(w io.Writer) error {
			return experiments.SpeedupCSV(w, sp)
		}); err != nil {
			return err
		}
		fmt.Fprintln(s.out)
	}
	return nil
}

func (s *session) fig6() error {
	c, err := experiments.RunComparison(s.ctx, experiments.MedicalBenchmark(), s.env)
	if err != nil {
		return err
	}
	experiments.WriteComparison(s.out, c)
	if s.chart {
		experiments.ComparisonChart(s.out, c)
	}
	return s.writeCSV("fig6_medical.csv", func(w io.Writer) error {
		return experiments.ComparisonCSV(w, c)
	})
}

func (s *session) summary() error {
	sum, err := experiments.RunSummary(s.ctx, s.env)
	if err != nil {
		return err
	}
	experiments.WriteSummary(s.out, sum)
	return s.writeCSV("summary.csv", func(w io.Writer) error {
		return experiments.SummaryCSV(w, sum)
	})
}

// matrix races YAFIM, RDD-Eclat and MRApriori on one dataset. It defaults
// to the candidate-heavy synthetic benchmark, where the horizontal/vertical
// representation choice matters most; -dataset picks another.
func (s *session) matrix() error {
	benches := s.benches
	if s.dataset == "" {
		heavy, err := experiments.FindBenchmark("T10I4D100K")
		if err != nil {
			return err
		}
		benches = []experiments.Benchmark{heavy}
	}
	for _, b := range benches {
		m, err := experiments.RunMatrix(s.ctx, b, s.env, experiments.MatrixSupports(b))
		if err != nil {
			return err
		}
		experiments.WriteMatrix(s.out, m)
		fmt.Fprintln(s.out)
	}
	return nil
}

// ablations measures each design choice where it matters: broadcast and
// the hash tree on the candidate-heavy synthetic data, the RDD cache on the
// largest input file.
func (s *session) ablations() error {
	heavy, err := experiments.FindBenchmark("T10I4D100K")
	if err != nil {
		return err
	}
	big, err := experiments.FindBenchmark("Pumsb_star")
	if err != nil {
		return err
	}
	for _, a := range []struct {
		b  experiments.Benchmark
		fn func(context.Context, experiments.Benchmark, experiments.Env) (*experiments.Ablation, error)
	}{
		{heavy, experiments.RunBroadcastAblation},
		{big, experiments.RunCacheAblation},
		{heavy, experiments.RunHashTreeAblation},
	} {
		res, err := a.fn(s.ctx, a.b, s.env)
		if err != nil {
			return err
		}
		experiments.WriteAblation(s.out, res)
	}
	return nil
}

// check asserts the paper's claims against the reproduction and fails when
// any does not hold.
func (s *session) check() error {
	fmt.Fprintln(s.out, "=== check: paper claims vs reproduction ===")
	checks, err := experiments.RunShapeChecks(s.ctx, s.env)
	if err != nil {
		return err
	}
	if failed := experiments.WriteChecks(s.out, checks); failed > 0 {
		return fmt.Errorf("%d claims failed to reproduce", failed)
	}
	fmt.Fprintln(s.out)
	return nil
}

// obs runs each benchmark once per parallel engine with a telemetry
// recorder attached, prints the per-stage skew table and counter totals,
// and (with -tracedir) writes a Chrome trace-event JSON file per run.
func (s *session) obs() error {
	fmt.Fprintln(s.out, "=== obs: instrumented runs ===")
	for _, b := range s.benches {
		runs, err := experiments.RunObserved(s.ctx, b, s.env)
		if err != nil {
			return err
		}
		for _, r := range runs {
			fmt.Fprintf(s.out, "--- %s / %s (virtual %v) ---\n",
				r.Dataset, r.Engine, r.Trace.TotalDuration().Round(time.Millisecond))
			if err := obs.WriteStageTable(s.out, r.Recorder); err != nil {
				return err
			}
			fmt.Fprintln(s.out, "counters:")
			if err := obs.WriteCounters(s.out, r.Recorder.Counters()); err != nil {
				return err
			}
			if s.traceDir != "" {
				if err := writeTraceFile(s.traceDir, r.Dataset+"_"+r.Engine+".trace.json", r.Recorder); err != nil {
					return err
				}
			}
		}
		fmt.Fprintln(s.out)
	}
	return nil
}

// chaos runs every benchmark four times, fault-free and chaotic per
// engine, to measure recovery cost.
func (s *session) chaos() error {
	fmt.Fprintln(s.out, "=== chaos: seeded faults + mitigation ===")
	params := experiments.DefaultChaosParams(s.chaosSeed)
	params.CrashFrac = s.crashFrac
	for _, b := range s.benches {
		c, err := experiments.RunChaos(s.ctx, b, s.env, params)
		if err != nil {
			return err
		}
		experiments.WriteChaos(s.out, c)
		fmt.Fprintln(s.out)
	}
	return nil
}

// diag reruns each benchmark per engine with full telemetry and prints the
// critical-path and skew diagnosis. Every diagnosis is validated for
// internal consistency (critical path sums to the makespan, bounded Gini
// and shares, known straggler causes), so a malformed report fails the
// command — this is what `make diag` gates on.
func (s *session) diag() error {
	fmt.Fprintln(s.out, "=== diag: critical path + skew analysis ===")
	var plan *chaos.Plan
	if s.diagChaos {
		plan = &chaos.Plan{Seed: s.chaosSeed,
			Stragglers: []chaos.Straggler{{Node: 1, Factor: 4}}}
		fmt.Fprintf(s.out, "chaos: node 1 straggling at 4x (seed %d)\n", s.chaosSeed)
	}
	onRecorder := func(engine string, rec *obs.Recorder) {
		cfg := s.env.Spark
		if engine == "mapreduce" {
			cfg = s.env.Hadoop
		}
		s.served.Store(&servedRun{rec: rec, opts: obs.AnalyzeOptions{Cluster: &cfg}})
	}
	for _, b := range s.benches {
		runs, err := experiments.RunDiagnosed(s.ctx, b, s.env, plan, onRecorder)
		if err != nil {
			return err
		}
		if err := experiments.WriteDiagTable(s.out, runs); err != nil {
			return err
		}
		for _, r := range runs {
			fmt.Fprintf(s.out, "--- %s / %s ---\n", r.Dataset, r.Engine)
			if err := obs.WriteDiagnosis(s.out, r.Diagnosis); err != nil {
				return err
			}
		}
		fmt.Fprintln(s.out)
	}
	return nil
}

// servedRun is what the -listen HTTP surface currently exposes: the most
// recently started engine run's recorder and the cluster to analyze it
// against.
type servedRun struct {
	rec  *obs.Recorder
	opts obs.AnalyzeOptions
}

// writeTraceFile writes one instrumented run's Chrome trace-event JSON into
// dir, creating the directory if needed.
func writeTraceFile(dir, name string, rec *obs.Recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
