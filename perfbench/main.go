// Command perfbench is the repository's wall-clock benchmark. It mines whole
// datasets through the public facade and reports end-to-end and per-layer
// metrics: the simulated YAFIM and RDD-Eclat engines through yafim.Mine, and
// the real distributed runtime through yafim.MineDistributed with an
// in-process master and two loopback workers.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash perfbench/run.sh --workload t10-yafim --seed 2014 --seconds 20 --trace 0
//
// --seed drives the input, so a seed always yields the same input. With
// --trace 0 the benchmark mines in a closed loop (one mine at a time) for
// --seconds and reports mine_s, setup_s and peak_heap_mb. With --trace 1 it
// makes one traced run instead and reports every per-layer metric; spans go
// to .bench_build/spans. Every mine is checked against a sequential oracle.
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the exit code is non-zero when any mine
// failed or disagreed with the oracle.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"yafim"
)

// workload is one generated input and one way of mining it.
type workload struct {
	name    string
	dataset string       // generator name, as yafim.GenDataset knows it
	scale   float64      // transactions relative to the paper's Table I size
	support float64      // relative minimum support
	engine  yafim.Engine // simulated engine; unused when dist is set
	dist    bool         // mine through the real runtime with MineDistributed
	// oracle is the sequential engine every mine is checked against: Eclat,
	// except on the dense Chess input at 75%, where Eclat's sorted tidlists
	// take over a minute and FP-Growth about a second.
	oracle yafim.Engine
}

var workloads = []workload{
	{name: "t10-yafim", dataset: "T10I4D100K", scale: 1, support: 0.0025,
		engine: yafim.EngineYAFIM, oracle: yafim.EngineEclat},
	{name: "chess-rddeclat", dataset: "Chess", scale: 20, support: 0.75,
		engine: yafim.EngineRDDEclat, oracle: yafim.EngineFPGrowth},
	{name: "t10-dist", dataset: "T10I4D100K", scale: 0.3, support: 0.0025,
		dist: true, oracle: yafim.EngineEclat},
	{name: "chess-dist", dataset: "Chess", scale: 5, support: 0.85,
		dist: true, oracle: yafim.EngineEclat},
}

// metricDef names one reported metric. moves is the end-to-end metric a
// change to the metric's layer should move ("" for the end-to-end metrics
// themselves and for the checks that must not move).
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics of a timed run, measured with tracing off.
var endToEnd = []metricDef{
	{"mine_s", "s", ""},
	{"setup_s", "s", ""},
	{"peak_heap_mb", "MiB", ""},
}

// perLayer are the metrics of a traced run. A layer a workload does not run
// reports zero there.
var perLayer = []metricDef{
	{"dataset.load_s", "s", "setup_s"},
	{"dataset.input_bytes", "bytes", "setup_s"},
	{"apriori.gen_s", "s", "mine_s"},
	{"apriori.candidates", "count", "mine_s"},
	{"apriori.frequent", "count", "mine_s"},
	{"hashtree.build_s", "s", "mine_s"},
	{"hashtree.count_s", "s", "mine_s"},
	{"hashtree.subset_ops", "count", "mine_s"},
	{"itemset.and_words", "count", "mine_s"},
	{"itemset.andcount_s", "s", "mine_s"},
	{"rdd.shuffle_bytes", "bytes", "mine_s"},
	{"rdd.broadcast_bytes", "bytes", "peak_heap_mb"},
	{"rdd.cache_hit_ratio", "ratio", "mine_s"},
	{"rdd.task_retries", "count", "mine_s"},
	{"sim.virt_s", "virt-s", ""},
	{"mrapriori.driver_s", "s", "mine_s"},
	{"dist.shuffle_bytes", "bytes", "mine_s"},
	{"dist.shuffle_fetches", "count", "mine_s"},
	{"dist.shuffle_fetch_s", "s", "mine_s"},
	{"dist.cache_blob_bytes", "bytes", "peak_heap_mb"},
	{"dist.rpc_calls", "count", "mine_s"},
	{"dist.lease_wait_s", "s", "mine_s"},
	{"dist.busy_frac", "ratio", "mine_s"},
	{"dist.lease_grant_ratio", "ratio", "mine_s"},
	{"dist.local_grant_ratio", "ratio", "mine_s"},
	{"dist.pass1_s", "s", "mine_s"},
	{"dist.pass_rest_s", "s", "mine_s"},
	{"dist.map_s", "s", "mine_s"},
	{"dist.reduce_s", "s", "mine_s"},
	{"dist.input_reads", "count", "mine_s"},
	{"dist.input_cache_hit_ratio", "ratio", "mine_s"},
	{"dist.task_failures", "count", "fail_frac"},
	{"dist.fetch_failures", "count", "fail_frac"},
	{"dist.lease_expiries", "count", "fail_frac"},
	{"dist.duplicate_completions", "count", "fail_frac"},
	{"obs.trace_overhead_frac", "ratio", ""},
}

// outDir holds everything a run writes: generated inputs and span files.
const outDir = ".bench_build"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a timed or traced run hands back for printing: metric
// values by name, a note per metric for the human-readable lines, and the
// mine tally.
type outcome struct {
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	// broken names a failed self-check of the traced run, "" if none.
	broken string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 2014, "seed of the input: it shuffles the generated transactions")
	seconds := fs.Int("seconds", 20, "how long a timed run mines")
	traced := fs.Int("trace", 0, "1 makes a traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			workloadNames())
		return 2
	}
	in, err := prepare(w, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var out outcome
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
		sp := newTracer(fmt.Sprintf("%s-seed%d", w.name, *seed))
		out, err = tracedRun(in, sp)
		if err == nil {
			err = sp.Write(filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed)))
		}
	} else {
		out, err = timedRun(in, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep := printReport(stdout, w, *seed, defs, out)
	if !rep.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d mines failed or disagreed with the oracle%s\n",
			out.failed, out.attempted, brokenNote(out.broken))
		return 1
	}
	return 0
}

func brokenNote(broken string) string {
	if broken == "" {
		return ""
	}
	return "; self-check failed: " + broken
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// input is a workload's generated input file and the oracle's result on it.
type input struct {
	w      workload
	path   string // absolute, as the dist workers are handed it
	oracle *yafim.Result
}

// genSeed is the generator seed of every input. The generators' output,
// and with it the mining work, varies by up to 45% between generator
// seeds, so the workload seed does not pick the transactions: it shuffles
// their order. Each seed thus gives its own input file, split contents and
// task partitions, while the frequent itemsets stay those of genSeed.
const genSeed = 2014

// prepare generates the workload's input from the seed, writes it where the
// program reads it, and mines the oracle once. None of this is timed.
func prepare(w workload, seed int64) (*input, error) {
	base, err := yafim.GenDataset(w.dataset, w.scale, genSeed)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", w.name, err)
	}
	rows := make([][]yafim.Item, base.Len())
	for i, tr := range base.Transactions {
		rows[i] = tr.Items
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	db := yafim.NewDB(w.name, rows)
	dir := filepath.Join(outDir, "inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path, err := filepath.Abs(filepath.Join(dir, fmt.Sprintf("%s-seed%d.dat", w.name, seed)))
	if err != nil {
		return nil, err
	}
	if err := yafim.SaveFile(db, path); err != nil {
		return nil, err
	}
	oracle, err := yafim.Mine(db, w.support, yafim.Options{Engine: w.oracle})
	if err != nil {
		return nil, fmt.Errorf("oracle on %s: %w", w.name, err)
	}
	return &input{w: w, path: path, oracle: oracle.Result}, nil
}

// timedRun measures end-to-end metrics with tracing off.
func timedRun(in *input, budget time.Duration) (outcome, error) {
	if in.w.dist {
		return timedDist(in, budget)
	}
	return timedSim(in, budget)
}

// tracedRun measures per-layer metrics.
func tracedRun(in *input, sp *tracer) (outcome, error) {
	if in.w.dist {
		return tracedDist(in, sp)
	}
	return tracedSim(in, sp)
}

// printReport writes one human-readable line per metric, then the JSON
// report as the last line, and returns the report.
func printReport(out io.Writer, w workload, seed int64, defs []metricDef, o outcome) report {
	rep := report{
		Correct:   o.failed == 0 && o.broken == "" && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(out, "workload %s seed %d\n", w.name, seed)
	for _, d := range defs {
		v := o.values[d.name]
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		line := fmt.Sprintf("  %-28s %14.6g %-7s", d.name, v, d.unit)
		if note := o.notes[d.name]; note != "" {
			line += " " + note
		}
		if d.moves != "" {
			line += " (moves " + d.moves + ")"
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "  %-28s %14.6g %-7s %d failed of %d mines attempted\n", "fail_frac",
		ratio(float64(o.failed), float64(o.attempted)), "ratio", o.failed, o.attempted)
	data, err := json.Marshal(rep)
	if err != nil {
		// Only a NaN or infinite value can fail to encode; ratio guards
		// every division, so this is a bug in a reduction.
		panic(err)
	}
	fmt.Fprintln(out, string(data))
	return rep
}
