// Package mapreduce implements a Hadoop-1.x-style MapReduce engine over the
// simulated DFS. A map task's input records are parsed .dat transactions
// (see Record and ReadRecords), while keys and values stay text (string
// keys and values, like Hadoop streaming). Map tasks read their split's
// records, partition and locally combine their output, spill it to
// (virtual) local disk; reduce tasks fetch their partition from every map
// task over the (virtual) network, merge, process keys in sorted order and
// commit part files back to the DFS with replication.
//
// Faithful to the era, every job pays a heavy startup cost (JobTracker
// setup, JVM launches) and re-reads and re-parses its input from the DFS —
// the overheads the paper blames for MapReduce's poor fit for iterative
// algorithms. Tasks run, retry and are scheduled on the same virtual
// cluster (internal/vcluster) as the RDD engine's, so the two engines
// differ only in what they compute and what they pay.
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"yafim/internal/cluster"
	"yafim/internal/dfs"
	"yafim/internal/exec"
	"yafim/internal/obs"
	"yafim/internal/sim"
	"yafim/internal/vcluster"
)

// Emit collects one key/value record from a mapper, combiner or reducer.
// Records move between tasks and land in part files as key\tvalue\n lines,
// so a key holds no tab or newline and a value no newline.
type Emit func(key, value string)

// CacheFiles holds the contents of a job's distributed-cache files, keyed
// by name: what a job type builds its Tasks from.
type CacheFiles map[string][]byte

// Mapper processes one input split. A fresh instance is created per map
// task, so implementations may keep per-task state without locking.
type Mapper interface {
	// Map processes one input record. Its items are read-only.
	Map(rec Record, emit Emit, led *sim.Ledger) error
	// Cleanup runs once per task after the last Map call; split-at-a-time
	// algorithms (e.g. SON's local mining) buffer in Map and emit here.
	Cleanup(emit Emit, led *sim.Ledger) error
}

// Reducer processes the values of one key. Also used for combiners, which
// emit only under the key they combine. The values are read-only, as
// Hadoop's value iterator is: they may be a map task's stored output, which
// a retried attempt reads again.
type Reducer interface {
	Reduce(key string, values []string, emit Emit, led *sim.Ledger) error
}

// Tasks makes a job's per-task instances: each call returns a fresh one for
// one task. What the factories share is built once per job, before the
// first task, and tasks running at once only read it.
type Tasks struct {
	NewMapper   func() Mapper
	NewReducer  func() Reducer
	NewCombiner func() Reducer // optional map-side combiner
}

// Job describes one MapReduce job.
type Job struct {
	Name      string
	Input     []string // DFS input paths
	OutputDir string   // DFS directory for part-r-NNNNN files
	Tasks
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
}

// SetRecorder attaches a telemetry recorder: every job, stage and task the
// runner executes is recorded as a span on the virtual timeline, along with
// shuffle-byte and retry counters. A nil recorder (the default) disables
// telemetry. Attach before running jobs.
func (r *Runner) SetRecorder(rec *obs.Recorder) {
	r.rec = rec
	r.drv.SetRecorder(rec)
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

// RunContext executes the job and returns its virtual-time report and
// counters. A canceled or expired context aborts the job at the next task
// boundary, returning an error matching exec.ErrCanceled or
// exec.ErrDeadlineExceeded. As with a killed Hadoop job, committed output of
// completed stages stays in the DFS; no worker goroutines outlive the call.
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

	cacheTime, err := r.loadCache(ctx, job.CacheFiles)
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
	outputs, mapCosts, mapPlacements, err := r.runMapStage(ctx, job, splits, counters)
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

	if err := r.runReduceStage(ctx, job, outputs, mapCosts, counters); err != nil {
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
// at the source plus one network hop), all nodes in parallel. The tasks
// never see the contents: the job's Tasks were built from them already.
func (r *Runner) loadCache(ctx context.Context, paths []string) (time.Duration, error) {
	var d time.Duration
	for _, p := range paths {
		data, err := r.fs.ReadFileContext(ctx, p, nil)
		if err != nil {
			return 0, err
		}
		secs := float64(len(data))/r.cfg.DiskBWPerSec + float64(len(data))/r.cfg.NetBWPerSec
		d += time.Duration(secs * float64(time.Second))
	}
	return d, nil
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

func (r *Runner) runMapStage(ctx context.Context, job Job, splits []dfs.Split,
	counters *Counters) ([]*MapOutput, []sim.Cost, []sim.TaskPlacement, error) {
	// A retried attempt overwrites its task's output, and the counters are
	// summed only after the stage settles: a failed attempt — chaos strikes
	// after the work is done — must not double-count records
	// (MapInputRecords feeds minimum support thresholds downstream).
	outputs := make([]*MapOutput, len(splits))
	prefs := make([][]int, len(splits))
	for i, s := range splits {
		prefs[i] = s.Locations
	}
	stage := vcluster.Stage{Name: job.Name + ":map", Tasks: len(splits), Prefs: prefs}
	costs, placements, err := r.drv.RunStage(ctx, stage, func(t int, led *sim.Ledger) error {
		var combiner Reducer
		if job.NewCombiner != nil {
			combiner = job.NewCombiner()
		}
		// Every pass reads and parses its split again, as a Hadoop job does.
		read := func() ([]Record, error) {
			lines, err := r.fs.ReadLinesContext(ctx, splits[t], led)
			if err != nil {
				return nil, err
			}
			return ReadRecords(lines)
		}
		out, err := MapTask(t, job.NewMapper(), combiner, read, job.NumReducers, led)
		if err != nil {
			return err
		}
		outputs[t] = out
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for _, out := range outputs {
		counters.MapInputRecords += out.InputRecords
		counters.MapOutputRecords += out.MapRecords
		counters.CombineOutputRecs += out.CombineRecords
	}
	// Per-partition output shape for the skew analysis, observed driver-side
	// after the stage settled so retried attempts never double-count.
	if r.rec.Enabled() {
		for _, out := range outputs {
			rows := out.MapRecords
			if job.NewCombiner != nil {
				rows = out.CombineRecords
			}
			var spill int64
			for _, n := range out.Bytes {
				spill += n
			}
			r.rec.ObservePartitionOutput("mapreduce", job.Name+":map", int(rows), spill)
		}
	}
	return outputs, costs, placements, nil
}

func (r *Runner) runReduceStage(ctx context.Context, job Job, outputs []*MapOutput, mapCosts []sim.Cost,
	counters *Counters) error {
	groups := make([]int64, job.NumReducers)
	outRecs := make([]int64, job.NumReducers)
	parts := make([][]byte, job.NumReducers)
	shuffleBytes := make([]int64, job.NumReducers)

	name := job.Name + ":reduce"
	_, _, err := r.drv.RunStage(ctx, vcluster.Stage{Name: name, Tasks: job.NumReducers}, func(p int, led *sim.Ledger) error {
		rt := NewReduceTask(p, job.NewReducer(), led)
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
			led.AddNet(outputs[victim].Bytes[p]) // the fetch that found nothing
			led.Add(mapCosts[victim])
		}
		// Shuffle fetch: this reducer's partition from every map task.
		var fetchedBytes int64
		for _, out := range outputs {
			led.AddDiskRead(out.Bytes[p])
			led.AddNet(out.Bytes[p])
			fetchedBytes += out.Bytes[p]
			rt.Merge(out.Runs[p])
		}
		shuffleBytes[p] = fetchedBytes

		var sb strings.Builder
		var outRecords int64
		emit := func(k, v string) {
			sb.WriteString(k)
			sb.WriteByte('\t')
			sb.WriteString(v)
			sb.WriteByte('\n')
			outRecords++
		}
		keys, err := rt.Reduce(emit)
		if err != nil {
			return err
		}
		// Every attempt pays for writing its output; the driver commits
		// the surviving one below.
		r.fs.ChargeWrite(int64(sb.Len()), led)
		parts[p] = []byte(sb.String())
		groups[p] = keys
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
