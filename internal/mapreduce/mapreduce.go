// Package mapreduce implements a Hadoop-1.x-style MapReduce engine over the
// simulated DFS. Jobs are text-typed (string keys and values, like Hadoop
// streaming): map tasks consume line records from input splits, partition
// and locally combine their output, spill it to (virtual) local disk;
// reduce tasks fetch their partition from every map task over the (virtual)
// network, merge, process keys in sorted order and commit part files back to
// the DFS with replication.
//
// Faithful to the era, every job pays a heavy startup cost (JobTracker
// setup, JVM launches) and re-reads its input from the DFS — the overheads
// the paper blames for MapReduce's poor fit for iterative algorithms. Tasks
// run, retry and are scheduled on the same virtual cluster
// (internal/vcluster) as the RDD engine's, so the two engines differ only in
// what they compute and what they pay.
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"yafim/internal/cluster"
	"yafim/internal/dfs"
	"yafim/internal/exec"
	"yafim/internal/obs"
	"yafim/internal/sim"
	"yafim/internal/vcluster"
)

// Emit collects one key/value record from a mapper, combiner or reducer.
type Emit func(key, value string)

// CacheFiles holds the contents of the job's distributed-cache files,
// keyed by DFS path.
type CacheFiles map[string][]byte

// Mapper processes one input split. A fresh instance is created per map
// task, so implementations may keep per-task state without locking.
type Mapper interface {
	// Setup runs once per task before any Map call, with the distributed
	// cache contents.
	Setup(cache CacheFiles, led *sim.Ledger) error
	// Map processes one line record (key = byte offset, as in Hadoop).
	Map(offset int64, line string, emit Emit, led *sim.Ledger) error
	// Cleanup runs once per task after the last Map call; split-at-a-time
	// algorithms (e.g. SON's local mining) buffer in Map and emit here.
	Cleanup(emit Emit, led *sim.Ledger) error
}

// Reducer processes the values of one key. Also used for combiners.
type Reducer interface {
	Setup(cache CacheFiles, led *sim.Ledger) error
	Reduce(key string, values []string, emit Emit, led *sim.Ledger) error
}

// Job describes one MapReduce job.
type Job struct {
	Name        string
	Input       []string // DFS input paths
	OutputDir   string   // DFS directory for part-r-NNNNN files
	NewMapper   func() Mapper
	NewReducer  func() Reducer
	NewCombiner func() Reducer // optional map-side combiner
	NumReducers int
	// MapTasks is a minimum map-task count hint, honoured by cutting blocks
	// into finer splits (0 = one task per block).
	MapTasks   int
	CacheFiles []string // distributed cache: fetched once per node
}

// Counters reports record flow through a completed job, Hadoop-style.
type Counters struct {
	MapInputRecords     int64
	MapOutputRecords    int64
	CombineOutputRecs   int64
	ReduceInputGroups   int64
	ReduceOutputRecords int64
}

// Runner executes jobs against one DFS on a virtual cluster, which runs the
// stages and keeps the job reports.
type Runner struct {
	fs  *dfs.FileSystem
	cfg cluster.Config
	drv *vcluster.Driver
	rec *obs.Recorder // telemetry; nil disables recording

	mu       sync.Mutex
	failures map[failureKey]int
}

// SetRecorder attaches a telemetry recorder: every job, stage and task the
// runner executes is recorded as a span on the virtual timeline, along with
// shuffle-byte and retry counters. A nil recorder (the default) disables
// telemetry. Attach before running jobs.
func (r *Runner) SetRecorder(rec *obs.Recorder) {
	r.rec = rec
	r.drv.SetRecorder(rec)
}

// Recorder returns the attached telemetry recorder (nil when disabled).
func (r *Runner) Recorder() *obs.Recorder { return r.rec }

type failureKey struct {
	stage string // "map" or "reduce"
	task  int
}

// TransientError is the failure injected by FailTaskOnce; the task
// scheduler retries any failed attempt, and tests use this type to assert
// the retry happened for the injected reason.
type TransientError struct {
	Stage string
	Task  int
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("mapreduce: injected failure in %s task %d", e.Stage, e.Task)
}

// FailTaskOnce schedules n transient failures for the given task index of
// the given stage ("map" or "reduce"): its next n attempts fail and are
// retried, exercising Hadoop-style task re-execution. Any other stage name
// or a negative task index or count is a bug in the caller and panics: a
// misspelled stage would otherwise silently inject nothing.
func (r *Runner) FailTaskOnce(stage string, task, n int) {
	if stage != "map" && stage != "reduce" {
		panic(fmt.Sprintf("mapreduce: FailTaskOnce: unknown stage %q (want %q or %q)",
			stage, "map", "reduce"))
	}
	if task < 0 {
		panic(fmt.Sprintf("mapreduce: FailTaskOnce: negative task index %d", task))
	}
	if n < 0 {
		panic(fmt.Sprintf("mapreduce: FailTaskOnce: negative failure count %d", n))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failures == nil {
		r.failures = make(map[failureKey]int)
	}
	r.failures[failureKey{stage, task}] += n
}

func (r *Runner) shouldFail(stage string, task int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := failureKey{stage, task}
	if r.failures[k] > 0 {
		r.failures[k]--
		return true
	}
	return false
}

// NewRunner creates a job runner for the given file system and cluster.
func NewRunner(fs *dfs.FileSystem, cfg cluster.Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A node crash costs the dead node's DFS replicas; Run re-runs the map
	// tasks whose output died with it.
	drv := vcluster.New(cfg, "mapreduce", nil)
	drv.AttachFS(fs)
	return &Runner{fs: fs, cfg: cfg, drv: drv}, nil
}

// Config returns the simulated cluster configuration.
func (r *Runner) Config() cluster.Config { return r.cfg }

// Reports returns the job reports of every job run so far, in order.
func (r *Runner) Reports() []sim.JobReport { return r.drv.Reports() }

// TotalDuration sums the virtual durations of all jobs run so far.
func (r *Runner) TotalDuration() time.Duration { return r.drv.TotalDuration() }

const recordOverheadBytes = 8 // per-record framing in spills and fetches

func pairBytes(k, v string) int64 { return int64(len(k)+len(v)) + recordOverheadBytes }

func hashString(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// PartitionOf returns the reduce partition the engine routes key to. The
// distributed runtime's workers use it so their shuffle partitioning is
// bit-identical to the in-memory engine's — a precondition for byte-equal
// job output between the two executors.
func PartitionOf(key string, numReducers int) int {
	return int(hashString(key)) % numReducers
}

// mapOutput is one map task's partitioned, optionally combined output.
type mapOutput struct {
	buckets []map[string][]string // [reducePartition] -> key -> values
	bytes   []int64               // serialized size per partition
}

// Run executes the job and returns its virtual-time report and counters.
func (r *Runner) Run(job Job) (*sim.JobReport, *Counters, error) {
	return r.RunContext(context.Background(), job)
}

// RunContext is Run with cooperative cancellation: a canceled or expired
// context aborts the job at the next task boundary, returning an error
// matching exec.ErrCanceled or exec.ErrDeadlineExceeded. As with a killed
// Hadoop job, committed output of completed stages stays in the DFS; no
// worker goroutines outlive the call.
func (r *Runner) RunContext(ctx context.Context, job Job) (*sim.JobReport, *Counters, error) {
	if err := validateJob(job); err != nil {
		return nil, nil, err
	}
	if err := exec.ContextErr(ctx); err != nil {
		r.rec.AddCancellations(1)
		return nil, nil, fmt.Errorf("mapreduce: %s: %w", job.Name, err)
	}
	// Every Hadoop job pays its own startup: no executors stay resident.
	r.drv.BeginJob(job.Name, r.cfg.JobStartup)
	defer r.drv.AbortJob() // a failed job leaves no report
	counters := &Counters{}

	cache, cacheTime, err := r.loadCache(ctx, job.CacheFiles)
	if err != nil {
		return nil, nil, fmt.Errorf("mapreduce: %s: distributed cache: %w", job.Name, err)
	}
	r.drv.AddOverhead(cacheTime)

	splits, err := r.collectSplits(job.Input, job.MapTasks)
	if err != nil {
		return nil, nil, fmt.Errorf("mapreduce: %s: %w", job.Name, err)
	}

	// A crash due before this job's map stage fires as the stage starts and
	// only costs exclusion (and any DFS repair): the map stage simply never
	// schedules on the dead node.
	outputs, mapCosts, mapPlacements, err := r.runMapStage(ctx, job, splits, cache, counters)
	if err != nil {
		return nil, nil, fmt.Errorf("mapreduce: %s: map stage: %w", job.Name, err)
	}

	// A crash between the stages is MapReduce's worst case: the dead node's
	// map output is gone, and unlike Spark there is no lineage cache — the
	// JobTracker must re-run those map tasks from their DFS inputs before any
	// reducer can fetch.
	if node, fired := r.drv.MaybeCrash(); fired {
		r.rerunLostMaps(job, node, mapCosts, mapPlacements)
	}

	if err := r.runReduceStage(ctx, job, outputs, mapCosts, cache, counters); err != nil {
		return nil, nil, fmt.Errorf("mapreduce: %s: reduce stage: %w", job.Name, err)
	}
	report := r.drv.EndJob()
	return &report, counters, nil
}

func validateJob(job Job) error {
	switch {
	case job.Name == "":
		return errors.New("mapreduce: job needs a name")
	case len(job.Input) == 0:
		return fmt.Errorf("mapreduce: %s: no input paths", job.Name)
	case job.OutputDir == "":
		return fmt.Errorf("mapreduce: %s: no output directory", job.Name)
	case job.NewMapper == nil || job.NewReducer == nil:
		return fmt.Errorf("mapreduce: %s: mapper and reducer are required", job.Name)
	case job.NumReducers <= 0:
		return fmt.Errorf("mapreduce: %s: NumReducers must be positive, got %d", job.Name, job.NumReducers)
	}
	return nil
}

// loadCache reads the distributed-cache files and returns the virtual time
// to localise them: every node pulls each file from the DFS once (disk read
// at the source plus one network hop), all nodes in parallel.
func (r *Runner) loadCache(ctx context.Context, paths []string) (CacheFiles, time.Duration, error) {
	cache := make(CacheFiles, len(paths))
	var d time.Duration
	for _, p := range paths {
		data, err := r.fs.ReadFileContext(ctx, p, nil)
		if err != nil {
			return nil, 0, err
		}
		cache[p] = data
		secs := float64(len(data))/r.cfg.DiskBWPerSec + float64(len(data))/r.cfg.NetBWPerSec
		d += time.Duration(secs * float64(time.Second))
	}
	return cache, d, nil
}

func (r *Runner) collectSplits(inputs []string, mapTasks int) ([]dfs.Split, error) {
	var splits []dfs.Split
	perInput := (mapTasks + len(inputs) - 1) / len(inputs)
	for _, in := range inputs {
		s, err := r.fs.SplitsN(in, perInput)
		if err != nil {
			return nil, err
		}
		splits = append(splits, s...)
	}
	if len(splits) == 0 {
		return nil, errors.New("input has no splits")
	}
	return splits, nil
}

func (r *Runner) runMapStage(ctx context.Context, job Job, splits []dfs.Split, cache CacheFiles,
	counters *Counters) ([]*mapOutput, []sim.Cost, []sim.TaskPlacement, error) {
	outputs := make([]*mapOutput, len(splits))
	// Per-task counter snapshots, overwritten on retry and summed only after
	// the stage settles: a failed attempt — chaos strikes after the work is
	// done — must not double-count records (MapInputRecords feeds minimum
	// support thresholds downstream).
	inRecs := make([]int64, len(splits))
	emitRecs := make([]int64, len(splits))
	combRecs := make([]int64, len(splits))

	prefs := make([][]int, len(splits))
	for i, s := range splits {
		prefs[i] = s.Locations
	}
	stage := vcluster.Stage{Name: job.Name + ":map", Tasks: len(splits), Prefs: prefs}
	costs, placements, err := r.drv.RunStage(ctx, stage, func(t int, led *sim.Ledger) error {
		if r.shouldFail("map", t) {
			return &TransientError{Stage: "map", Task: t}
		}
		mapper := job.NewMapper()
		if err := mapper.Setup(cache, led); err != nil {
			return fmt.Errorf("task %d setup: %w", t, err)
		}
		lines, err := r.fs.ReadLinesContext(ctx, splits[t], led)
		if err != nil {
			return fmt.Errorf("task %d read: %w", t, err)
		}
		out := &mapOutput{
			buckets: make([]map[string][]string, job.NumReducers),
			bytes:   make([]int64, job.NumReducers),
		}
		for i := range out.buckets {
			out.buckets[i] = make(map[string][]string)
		}
		var emitted int64
		emit := func(k, v string) {
			b := out.buckets[PartitionOf(k, job.NumReducers)]
			b[k] = append(b[k], v)
			emitted++
		}
		for _, line := range lines {
			if err := mapper.Map(line.Offset, line.Text, emit, led); err != nil {
				return fmt.Errorf("task %d map: %w", t, err)
			}
		}
		if err := mapper.Cleanup(emit, led); err != nil {
			return fmt.Errorf("task %d cleanup: %w", t, err)
		}
		led.AddCPU(float64(len(lines)) + float64(emitted))

		var combined int64
		if job.NewCombiner != nil {
			c := job.NewCombiner()
			if err := c.Setup(cache, led); err != nil {
				return fmt.Errorf("task %d combiner setup: %w", t, err)
			}
			for i, b := range out.buckets {
				nb := make(map[string][]string, len(b))
				cemit := func(k, v string) {
					nb[k] = append(nb[k], v)
					combined++
				}
				for k, vs := range b {
					if err := c.Reduce(k, vs, cemit, led); err != nil {
						return fmt.Errorf("task %d combine: %w", t, err)
					}
					led.AddCPU(float64(len(vs)))
				}
				out.buckets[i] = nb
			}
		}

		// Sort-and-spill: Hadoop sorts map output before writing it to local
		// disk; charge n log n comparisons plus the spill bytes.
		var records int64
		for i, b := range out.buckets {
			for k, vs := range b {
				for _, v := range vs {
					out.bytes[i] += pairBytes(k, v)
					records++
				}
			}
		}
		led.AddCPU(nLogN(records))
		for _, n := range out.bytes {
			led.AddDiskWrite(n)
		}

		outputs[t] = out
		inRecs[t] = int64(len(lines))
		emitRecs[t] = emitted
		combRecs[t] = combined
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for t := range splits {
		counters.MapInputRecords += inRecs[t]
		counters.MapOutputRecords += emitRecs[t]
		counters.CombineOutputRecs += combRecs[t]
	}
	// Per-partition output shape for the skew analysis, observed driver-side
	// after the stage settled so retried attempts never double-count.
	if r.rec.Enabled() {
		for t := range splits {
			rows := emitRecs[t]
			if job.NewCombiner != nil {
				rows = combRecs[t]
			}
			var spill int64
			for _, n := range outputs[t].bytes {
				spill += n
			}
			r.rec.ObservePartitionOutput("mapreduce", job.Name+":map", int(rows), spill)
		}
	}
	return outputs, costs, placements, nil
}

func (r *Runner) runReduceStage(ctx context.Context, job Job, outputs []*mapOutput, mapCosts []sim.Cost,
	cache CacheFiles, counters *Counters) error {
	groups := make([]int64, job.NumReducers)
	outRecs := make([]int64, job.NumReducers)
	parts := make([][]byte, job.NumReducers)
	shuffleBytes := make([]int64, job.NumReducers)

	name := job.Name + ":reduce"
	_, _, err := r.drv.RunStage(ctx, vcluster.Stage{Name: name, Tasks: job.NumReducers}, func(p int, led *sim.Ledger) error {
		if r.shouldFail("reduce", p) {
			return &TransientError{Stage: "reduce", Task: p}
		}
		reducer := job.NewReducer()
		if err := reducer.Setup(cache, led); err != nil {
			return fmt.Errorf("reducer %d setup: %w", p, err)
		}
		// Chaos: a failed shuffle fetch means one map task's output is gone.
		// MapReduce has no lineage cache, so the JobTracker re-runs the whole
		// victim map task from its DFS input before this reducer can proceed:
		// the reducer pays the dead fetch plus the map task's full recorded
		// cost. The in-memory output is reused byte-identically — only the
		// virtual cost is charged, never the mapper closure re-run.
		if plan := r.drv.ChaosPlan(); plan.FetchFails(name, p) {
			victim := plan.FetchVictim(name, p, len(outputs))
			r.rec.AddFetchFailure()
			r.rec.AddStageRerun()
			led.AddNet(outputs[victim].bytes[p]) // the fetch that found nothing
			led.Add(mapCosts[victim])
		}
		// Shuffle fetch: this reducer's bucket from every map task.
		merged := make(map[string][]string)
		var fetched, fetchedBytes int64
		for _, out := range outputs {
			led.AddDiskRead(out.bytes[p])
			led.AddNet(out.bytes[p])
			fetchedBytes += out.bytes[p]
			for k, vs := range out.buckets[p] {
				merged[k] = append(merged[k], vs...)
				fetched += int64(len(vs))
			}
		}
		shuffleBytes[p] = fetchedBytes
		// Merge sort of fetched runs.
		led.AddCPU(nLogN(fetched))
		keys := make([]string, 0, len(merged))
		for k := range merged {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		var sb strings.Builder
		var outRecords int64
		emit := func(k, v string) {
			sb.WriteString(k)
			sb.WriteByte('\t')
			sb.WriteString(v)
			sb.WriteByte('\n')
			outRecords++
		}
		for _, k := range keys {
			if err := reducer.Reduce(k, merged[k], emit, led); err != nil {
				return fmt.Errorf("reducer %d key %q: %w", p, k, err)
			}
			led.AddCPU(float64(len(merged[k])))
		}
		// Every attempt pays for writing its output; the driver commits
		// the surviving one below.
		r.fs.ChargeWrite(int64(sb.Len()), led)
		parts[p] = []byte(sb.String())
		groups[p] = int64(len(keys))
		outRecs[p] = outRecords
		return nil
	})
	if err != nil {
		return err
	}
	// Commit in partition order: the DFS places replicas round-robin, so
	// commits racing from the task goroutines would place the part files in
	// scheduler order, and a later node crash would repair different blocks
	// in two runs of one seed.
	for p, data := range parts {
		path := fmt.Sprintf("%s/part-r-%05d", job.OutputDir, p)
		if err := r.fs.WriteFile(path, data, nil); err != nil {
			return fmt.Errorf("reducer %d commit: %w", p, err)
		}
	}
	for p := 0; p < job.NumReducers; p++ {
		counters.ReduceInputGroups += groups[p]
		counters.ReduceOutputRecords += outRecs[p]
		r.rec.AddShuffleBytes(shuffleBytes[p])
	}
	if r.rec.Enabled() {
		for p := 0; p < job.NumReducers; p++ {
			r.rec.ObservePartitionOutput("mapreduce", job.Name+":reduce",
				int(outRecs[p]), int64(len(parts[p])))
		}
	}
	return nil
}

func nLogN(n int64) float64 {
	if n <= 1 {
		return float64(n)
	}
	lg := 0.0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return float64(n) * lg
}
