// Package yafim is a Go reproduction of "YAFIM: A Parallel Frequent
// Itemset Mining Algorithm with Spark" (Qiu, Gu, Yuan, Huang — IEEE IPDPSW
// 2014): the YAFIM algorithm itself, the Spark-like RDD engine and
// Hadoop-like MapReduce engine it is evaluated against, sequential oracles
// (Apriori, Eclat, FP-Growth), association-rule generation, the paper's
// benchmark dataset generators, and a deterministic cluster performance
// model that reproduces the paper's figures on any machine.
//
// This package is the public facade over the internal subsystems. The
// typical flow is: obtain a DB (load a .dat file or use a generator), pick
// a Cluster, and call Mine with the engine of your choice:
//
//	db, _ := yafim.LoadFile("retail", "retail.dat")
//	trace, _ := yafim.Mine(db, 0.01, yafim.Options{})
//	rules, _ := yafim.GenerateRules(trace.Result, 0.8, db.Len())
//
// All mining engines return exactly the same frequent itemsets for the same
// input; they differ only in execution strategy and simulated cost.
package yafim

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"yafim/internal/apriori"
	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/datagen"
	"yafim/internal/dataset"
	"yafim/internal/eclat"
	"yafim/internal/exec"
	"yafim/internal/experiments"
	"yafim/internal/fpgrowth"
	"yafim/internal/itemset"
	"yafim/internal/mrapriori"
	"yafim/internal/obs"
	"yafim/internal/rdd"
	"yafim/internal/rddeclat"
	"yafim/internal/rules"
	"yafim/internal/son"
	"yafim/internal/yafim"
)

// Core data types, re-exported from the itemset package.
type (
	// Item identifies a single item.
	Item = itemset.Item
	// Itemset is a sorted, duplicate-free set of items.
	Itemset = itemset.Itemset
	// DB is an immutable transactional database.
	DB = itemset.DB
	// Stats summarises a database (Table I style).
	Stats = itemset.Stats
)

// Mining result types, re-exported from the apriori package.
type (
	// Result holds every frequent itemset with exact support counts.
	Result = apriori.Result
	// SetCount pairs an itemset with its support count.
	SetCount = apriori.SetCount
	// Trace is a Result plus per-pass timing from a parallel engine.
	Trace = apriori.Trace
	// PassStat is the per-pass record inside a Trace.
	PassStat = apriori.PassStat
)

// Rule is an association rule with support, confidence and lift.
type Rule = rules.Rule

// Error types, re-exported from the exec package. Every failure returned by
// Mine/MineContext is inspectable with errors.Is/errors.As:
//
//   - ErrCanceled / ErrDeadlineExceeded match when the run was cut short by
//     its context or by Options.Deadline.
//   - *StageError names the engine and stage that failed, the retry budget
//     spent, and the RDD lineage that would be recomputed.
//   - *TaskError pinpoints one task attempt; if a user closure panicked, it
//     carries the recovered value and stack instead of crashing the process.
//   - *InputError (defined here) reports an invalid Mine argument.
type (
	// TaskError is a single task attempt's failure (possibly a recovered
	// panic) with engine, stage, partition and attempt attached.
	TaskError = exec.TaskError
	// StageError is a stage-level failure wrapping the per-task errors,
	// annotated with the lineage needed to recompute the stage.
	StageError = exec.StageError
)

// Cancellation sentinels, re-exported from the exec package.
var (
	// ErrCanceled matches (via errors.Is) any error caused by context
	// cancellation.
	ErrCanceled = exec.ErrCanceled
	// ErrDeadlineExceeded matches any error caused by a context deadline or
	// Options.Deadline expiring.
	ErrDeadlineExceeded = exec.ErrDeadlineExceeded
)

// IsCancellation reports whether err was caused by context cancellation or
// an expired deadline — i.e. it matches ErrCanceled or ErrDeadlineExceeded.
func IsCancellation(err error) bool { return exec.IsCancellation(err) }

// InputError reports an invalid argument to Mine or MineContext.
type InputError struct {
	// Field names the offending argument ("db", "minSupport", "MaxK", ...).
	Field string
	// Reason says what was wrong with it.
	Reason string
}

func (e *InputError) Error() string {
	return fmt.Sprintf("yafim: invalid %s: %s", e.Field, e.Reason)
}

// Telemetry types, re-exported from the obs package.
type (
	// Recorder collects spans and counters from an instrumented run; attach
	// one via Options.Recorder. A nil recorder disables telemetry.
	Recorder = obs.Recorder
	// Counters is a snapshot of an instrumented run's runtime counters.
	Counters = obs.Counters
	// StageStats summarises one stage's task-time distribution.
	StageStats = obs.StageStats
	// Diagnosis is the analyzed view of a recorded run: critical path,
	// per-stage skew, and straggler attribution.
	Diagnosis = obs.Diagnosis
)

// NewRecorder creates an empty telemetry recorder.
func NewRecorder() *Recorder { return obs.New() }

// Diagnose analyzes a recorded run: the critical path through the span tree
// (whose step durations sum exactly to the run's makespan), per-stage skew
// (max/median task time, Gini over partition sizes, hot partitions) and
// straggler attribution. cfg, when non-nil, should be the cluster the run
// executed on; it lets the analysis separate environment-slowed tasks
// (chaos stragglers) from genuinely heavy partitions by comparing scheduled
// durations against cost-predicted ones.
func Diagnose(rec *Recorder, cfg *Cluster) *Diagnosis {
	return obs.Analyze(rec, obs.AnalyzeOptions{Cluster: cfg})
}

// WriteDiagnosis renders a diagnosis for humans: critical-path contributors,
// skewed stages, hot partitions and attributed stragglers.
var WriteDiagnosis = obs.WriteDiagnosis

// WriteJournal exports a recorded run as a JSONL event journal: one line per
// job/stage boundary, task retry and shuffle lifecycle event, each stamped
// with its virtual timestamp. Identical runs journal identical bytes.
var WriteJournal = obs.WriteJournal

// WritePrometheus renders the recorder's metric surface (flat counters plus
// histogram/gauge families) in the Prometheus text exposition format.
var WritePrometheus = obs.WritePrometheus

// ObsHandler serves a recorder over HTTP: Prometheus text at /metrics, the
// diagnosis at /diag (text) and /diag.json, the event journal at /journal,
// and net/http/pprof under /debug/pprof/. cfg has the same role as in
// Diagnose. Wire it to a listener to observe a run while it executes.
func ObsHandler(rec *Recorder, cfg *Cluster) http.Handler {
	return obs.Handler(rec, obs.AnalyzeOptions{Cluster: cfg})
}

// Chaos engineering types, re-exported from the chaos package.
type (
	// ChaosPlan is a deterministic seed-driven fault plan; attach one via
	// Options.Chaos to inject task failures, stragglers, fetch/block-read
	// failures and a node crash into a parallel engine's run. A given seed
	// yields byte-identical results and timings on every run.
	ChaosPlan = chaos.Plan
	// NodeCrash schedules a whole-node failure at a virtual time.
	NodeCrash = chaos.NodeCrash
	// Straggler slows one node by a constant factor.
	Straggler = chaos.Straggler
	// Resilience configures the engines' fault mitigation (speculation,
	// blacklisting, re-replication).
	Resilience = chaos.Resilience
)

// DefaultChaosPlan returns the standard fault plan for a seed: 5% task
// failures, 2% shuffle-fetch failures, 1% block-read failures and one 4x
// straggler node. Engines mitigate with chaos.Defaults unless overridden.
func DefaultChaosPlan(seed int64) *ChaosPlan { return chaos.DefaultPlan(seed) }

// WriteChromeTrace writes a recorded run as Chrome trace-event JSON, loadable
// in Perfetto or chrome://tracing: one process per simulated node, one thread
// per core, every job/stage/task as a complete event on the virtual timeline.
var WriteChromeTrace = obs.WriteChromeTrace

// WriteStageTable renders the Spark-Web-UI-style per-stage skew table.
var WriteStageTable = obs.WriteStageTable

// WriteCounters renders a counter snapshot as an aligned key/value table.
var WriteCounters = obs.WriteCounters

// Cluster describes simulated hardware plus a runtime profile.
type Cluster = cluster.Config

// Cluster presets.
var (
	// ClusterSpark is the paper's 12-node testbed running the Spark-style
	// runtime (resident executors, cheap stages).
	ClusterSpark = cluster.PaperSpark
	// ClusterHadoop is the same hardware running the Hadoop-1.x-style
	// MapReduce runtime (per-job startup, per-task JVMs).
	ClusterHadoop = cluster.PaperHadoop
	// ClusterLocal is a small 2-node configuration for tests and demos.
	ClusterLocal = cluster.Local
)

// NewItemset builds a canonical itemset from items.
func NewItemset(items ...Item) Itemset { return itemset.New(items...) }

// NewDB builds a database from raw transactions.
func NewDB(name string, rows [][]Item) *DB { return itemset.NewDB(name, rows) }

// LoadFile reads a transaction database in .dat format (one transaction per
// line, whitespace-separated non-negative item ids).
func LoadFile(name, path string) (*DB, error) { return dataset.LoadFile(name, path) }

// SaveFile writes a database to the local file system in .dat format.
func SaveFile(db *DB, path string) error { return dataset.SaveFile(db, path) }

// Engine selects a mining implementation. Each one earns its place: the
// paper's algorithm and its comparator, one related-work algorithm and one
// representation alternative that the experiments race against them, and
// three independent sequential oracles.
type Engine int

const (
	// EngineYAFIM is the paper's contribution: parallel Apriori on the
	// Spark-substitute RDD engine with a cached transactions RDD and
	// broadcast candidate hash trees (Figs. 3–6).
	EngineYAFIM Engine = iota
	// EngineMapReduce is the comparator: k-phase Apriori where every pass
	// is a full MapReduce job over the DFS (Figs. 3, 4 and 6).
	EngineMapReduce
	// EngineSequential is the single-core reference Apriori, the oracle
	// every parallel engine is checked against.
	EngineSequential
	// EngineEclat is the vertical-layout depth-first oracle.
	EngineEclat
	// EngineFPGrowth is the candidate-free FP-tree oracle.
	EngineFPGrowth
	// EngineSON is the one-phase SON algorithm on MapReduce (§III): local
	// mining per input split, then the same exact counting job MRApriori
	// runs for each of its passes.
	EngineSON
	// EngineRDDEclat is RDD-Eclat on the RDD engine: equivalence-class-
	// partitioned Eclat with dense word-at-a-time bitset tidlist kernels,
	// the vertical column of the engine matrix.
	EngineRDDEclat
)

// engineTable is the facade's one description of every engine, indexed by
// Engine: its name, and for the parallel engines the simulated cluster it
// runs on by default. Sequential engines run natively and have no cluster.
var engineTable = [...]struct {
	name    string
	cluster func() Cluster
}{
	EngineYAFIM:      {"yafim", cluster.PaperSpark},
	EngineMapReduce:  {"mapreduce", cluster.PaperHadoop},
	EngineSequential: {"sequential", nil},
	EngineEclat:      {"eclat", nil},
	EngineFPGrowth:   {"fpgrowth", nil},
	EngineSON:        {"son", cluster.PaperHadoop},
	EngineRDDEclat:   {"rddeclat", cluster.PaperSpark},
}

// Engines returns every engine in declaration order.
func Engines() []Engine {
	out := make([]Engine, len(engineTable))
	for i := range out {
		out[i] = Engine(i)
	}
	return out
}

func (e Engine) valid() bool { return e >= 0 && int(e) < len(engineTable) }

func (e Engine) String() string {
	if !e.valid() {
		return fmt.Sprintf("Engine(%d)", int(e))
	}
	return engineTable[e].name
}

// DefaultCluster returns the simulated cluster a parallel engine runs on
// when Options.Cluster is nil: the paper's testbed in the Spark profile for
// the RDD engines and in the Hadoop profile for the MapReduce engines. It
// reports false for the sequential engines, which run natively.
func (e Engine) DefaultCluster() (Cluster, bool) {
	if !e.valid() || engineTable[e].cluster == nil {
		return Cluster{}, false
	}
	return engineTable[e].cluster(), true
}

// ParseEngine resolves an engine by its String name.
func ParseEngine(name string) (Engine, error) {
	for _, e := range Engines() {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("yafim: unknown engine %q", name)
}

// Options configures Mine.
type Options struct {
	// Engine selects the implementation (default EngineYAFIM).
	Engine Engine
	// Cluster is the simulated cluster for the parallel engines (default
	// the paper's 12-node testbed in the engine's matching runtime profile).
	Cluster *Cluster
	// MaxK stops after frequent itemsets of this size (0 = unbounded).
	MaxK int
	// Tasks is the parallel task-granularity hint (0 = 2x cluster cores).
	Tasks int
	// Recorder, when non-nil, captures telemetry (spans on the virtual
	// timeline plus runtime counters) from the parallel engines. Sequential
	// engines ignore it.
	Recorder *Recorder
	// Chaos, when non-nil, injects the seeded fault plan into the parallel
	// engines (yafim, mapreduce, rddeclat); mining results are unaffected —
	// only the virtual timeline shows the faults and their mitigation.
	// SON and the sequential engines ignore it.
	Chaos *ChaosPlan
	// Deadline, when positive, bounds the run's real (wall-clock) time. A
	// run that exceeds it returns an error matching ErrDeadlineExceeded
	// within one task boundary. It composes with any deadline already on the
	// context passed to MineContext: whichever expires first wins.
	Deadline time.Duration
}

// validate rejects unusable Mine arguments up front with *InputError, so
// malformed calls fail fast instead of surfacing as a confusing engine
// failure (or running forever).
func (opts Options) validate(db *DB, minSupport float64) error {
	if db == nil {
		return &InputError{Field: "db", Reason: "must not be nil"}
	}
	if math.IsNaN(minSupport) {
		return &InputError{Field: "minSupport", Reason: "must not be NaN"}
	}
	if minSupport <= 0 || minSupport > 1 {
		return &InputError{Field: "minSupport",
			Reason: fmt.Sprintf("must be in (0, 1], got %g", minSupport)}
	}
	if opts.MaxK < 0 {
		return &InputError{Field: "MaxK",
			Reason: fmt.Sprintf("must not be negative, got %d", opts.MaxK)}
	}
	if opts.Tasks < 0 {
		return &InputError{Field: "Tasks",
			Reason: fmt.Sprintf("must not be negative, got %d", opts.Tasks)}
	}
	if opts.Deadline < 0 {
		return &InputError{Field: "Deadline",
			Reason: fmt.Sprintf("must not be negative, got %v", opts.Deadline)}
	}
	return nil
}

// Mine finds all frequent itemsets of db at the given relative minimum
// support with the selected engine. The sequential engines return a Trace
// whose single pass covers the whole run and whose duration is the real
// elapsed time; parallel engines report per-pass virtual cluster time.
//
// Mine is MineContext with a background context: it cannot be canceled
// except through Options.Deadline.
func Mine(db *DB, minSupport float64, opts Options) (*Trace, error) {
	return MineContext(context.Background(), db, minSupport, opts)
}

// MineContext is Mine with cooperative cancellation. Canceling ctx (or
// exceeding its deadline, or Options.Deadline) stops the run at the next
// task boundary — or mid-scan for the dataset-sized loops — and returns an
// error matching ErrCanceled or ErrDeadlineExceeded. A partial telemetry
// trace recorded up to the cancellation point remains valid and writable.
func MineContext(ctx context.Context, db *DB, minSupport float64, opts Options) (*Trace, error) {
	if err := opts.validate(db, minSupport); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	cfg, _ := opts.Engine.DefaultCluster()
	if opts.Cluster != nil {
		cfg = *opts.Cluster
	}
	switch opts.Engine {
	case EngineYAFIM:
		trace, _, err := experiments.RunYAFIM(ctx, db, minSupport, cfg, tasks(opts, cfg),
			yafim.Config{MaxK: opts.MaxK}, rddOptions(opts)...)
		return trace, err
	case EngineMapReduce:
		trace, _, err := experiments.RunMRApriori(ctx, db, minSupport, cfg, tasks(opts, cfg),
			mrapriori.Config{MaxK: opts.MaxK}, opts.Recorder, opts.Chaos)
		return trace, err
	case EngineSequential:
		return timed(ctx, opts.MaxK, func() (*Result, error) {
			return apriori.Mine(db, minSupport, apriori.Options{
				MaxK:      opts.MaxK,
				Interrupt: func() error { return exec.ContextErr(ctx) },
			})
		})
	case EngineEclat:
		return timed(ctx, opts.MaxK, func() (*Result, error) { return eclat.Mine(db, minSupport) })
	case EngineFPGrowth:
		return timed(ctx, opts.MaxK, func() (*Result, error) { return fpgrowth.Mine(db, minSupport) })
	case EngineSON:
		trace, _, err := experiments.RunSON(ctx, db, minSupport, cfg, tasks(opts, cfg),
			son.Config{MaxK: opts.MaxK}, opts.Recorder)
		return trace, err
	case EngineRDDEclat:
		trace, _, err := experiments.RunRDDEclat(ctx, db, minSupport, cfg, tasks(opts, cfg),
			rddeclat.Config{MaxK: opts.MaxK}, rddOptions(opts)...)
		return trace, err
	default:
		return nil, fmt.Errorf("yafim: unknown engine %v", opts.Engine)
	}
}

// rddOptions translates facade options into RDD engine options.
func rddOptions(opts Options) []rdd.Option {
	var out []rdd.Option
	if opts.Recorder != nil {
		out = append(out, rdd.WithRecorder(opts.Recorder))
	}
	if opts.Chaos != nil {
		out = append(out, rdd.WithChaos(opts.Chaos))
	}
	return out
}

func tasks(opts Options, cfg Cluster) int {
	if opts.Tasks > 0 {
		return opts.Tasks
	}
	return 2 * cfg.TotalCores()
}

// timed runs a sequential engine, checking the context once up front (most
// sequential baselines have no interior interruption points) and wrapping
// the result in a single-pass Trace. Levels above maxK (when positive) are
// dropped, since Eclat and FP-Growth always mine the whole lattice.
func timed(ctx context.Context, maxK int, run func() (*Result, error)) (*Trace, error) {
	if err := exec.ContextErr(ctx); err != nil {
		return nil, fmt.Errorf("yafim: %w", err)
	}
	start := time.Now()
	res, err := run()
	if err != nil {
		return nil, err
	}
	if maxK > 0 && len(res.Levels) > maxK {
		res.Levels = res.Levels[:maxK]
	}
	return &Trace{
		Result: res,
		Passes: []PassStat{{K: res.MaxK(), Frequent: res.NumFrequent(), Duration: time.Since(start)}},
	}, nil
}

// GenerateRules derives association rules with at least minConfidence from
// a mining result over numTransactions records.
func GenerateRules(res *Result, minConfidence float64, numTransactions int) ([]Rule, error) {
	return rules.Generate(res, minConfidence, numTransactions)
}

// Benchmark dataset generators (deterministic given their seed); scale
// multiplies the transaction count (1.0 = the size reported in the paper's
// Table I).
var (
	GenMushroom   = datagen.MushroomLike
	GenChess      = datagen.ChessLike
	GenPumsbStar  = datagen.PumsbStarLike
	GenT10I4D100K = datagen.T10I4D100K
	GenMedical    = datagen.MedicalCases
	GenKosarak    = datagen.KosarakLike
	GenRetail     = datagen.RetailLike
)
