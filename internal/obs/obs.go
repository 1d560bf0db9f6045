// Package obs is the engine-wide telemetry subsystem: a Recorder that both
// execution engines (the RDD engine and the MapReduce engine) emit into
// while they run.
//
// A Recorder collects two kinds of data:
//
//   - Spans — every job, stage and individual task, with its position on the
//     *virtual* timeline derived from the sim makespan schedule. Because the
//     schedule is deterministic, two identical runs produce byte-identical
//     traces.
//   - Counters — runtime totals the performance analysis needs: cache
//     hits/misses/evictions, lineage recomputations, broadcast versus naive
//     shipping bytes, shuffle bytes, DFS I/O bytes, task retries with their
//     wasted cost, and locality-preference outcomes.
//
// A nil *Recorder is valid everywhere and records nothing: every method is
// nil-safe, so the engines carry a recorder pointer unconditionally and the
// un-instrumented path stays allocation-free.
package obs

import (
	"sync"
	"time"

	"yafim/internal/sim"
)

// Counters is a snapshot of every runtime counter. The zero value is a valid
// empty snapshot; Sub produces per-interval deltas (e.g. per mining pass).
type Counters struct {
	// RDD cache behaviour (§IV-B: "held in the memory as much as possible").
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheEvictions    int64 `json:"cache_evictions"`
	LineageRecomputes int64 `json:"lineage_recomputes"`

	// Data distribution (§IV-C: broadcast variables vs naive shipping).
	BroadcastBytes int64 `json:"broadcast_bytes"`
	NaiveShipBytes int64 `json:"naive_ship_bytes"`

	// Data movement.
	ShuffleBytes  int64 `json:"shuffle_bytes"`
	DFSReadBytes  int64 `json:"dfs_read_bytes"`
	DFSWriteBytes int64 `json:"dfs_write_bytes"`

	// Shuffle lifecycle: map-output bytes currently resident in executor
	// memory (a gauge — commits add, frees/node losses subtract), map-output
	// slices reclaimed by FreeShuffles/Close/node loss, and map tasks
	// re-executed to regenerate output a node loss destroyed.
	ShuffleResidentBytes int64 `json:"shuffle_resident_bytes"`
	ShuffleFrees         int64 `json:"shuffle_frees"`
	MapReruns            int64 `json:"map_reruns"`

	// Fault tolerance: failed task attempts and the virtual work they wasted.
	TaskRetries int64    `json:"task_retries"`
	WastedCost  sim.Cost `json:"wasted_cost"`

	// Execution hardening: stages aborted by cooperative cancellation (a
	// context cancel, a deadline, or a signal) and user-closure panics
	// recovered into typed task errors instead of killing the process.
	Cancellations int64 `json:"cancellations"`
	TaskPanics    int64 `json:"task_panics"`

	// Chaos mitigation: speculative execution, node blacklisting, shuffle
	// fetch recovery, and DFS block repair.
	SpeculativeLaunches int64 `json:"speculative_launches"`
	SpeculativeWins     int64 `json:"speculative_wins"`
	NodesBlacklisted    int64 `json:"nodes_blacklisted"`
	FetchFailures       int64 `json:"fetch_failures"`
	StagesRerun         int64 `json:"stages_rerun"`
	ReReplicatedBlocks  int64 `json:"re_replicated_blocks"`
	BlockReadRetries    int64 `json:"block_read_retries"`

	// Locality-aware scheduling: tasks with a preference that ran on a
	// preferred node versus tasks that had to read their input remotely.
	LocalityLocal  int64 `json:"locality_local"`
	LocalityRemote int64 `json:"locality_remote"`
}

// Sub returns the component-wise difference c - d, used to attribute counter
// activity to an interval bracketed by two snapshots.
func (c Counters) Sub(d Counters) Counters {
	return Counters{
		CacheHits:         c.CacheHits - d.CacheHits,
		CacheMisses:       c.CacheMisses - d.CacheMisses,
		CacheEvictions:    c.CacheEvictions - d.CacheEvictions,
		LineageRecomputes: c.LineageRecomputes - d.LineageRecomputes,
		BroadcastBytes:    c.BroadcastBytes - d.BroadcastBytes,
		NaiveShipBytes:    c.NaiveShipBytes - d.NaiveShipBytes,
		ShuffleBytes:      c.ShuffleBytes - d.ShuffleBytes,
		DFSReadBytes:      c.DFSReadBytes - d.DFSReadBytes,
		DFSWriteBytes:     c.DFSWriteBytes - d.DFSWriteBytes,

		ShuffleResidentBytes: c.ShuffleResidentBytes - d.ShuffleResidentBytes,
		ShuffleFrees:         c.ShuffleFrees - d.ShuffleFrees,
		MapReruns:            c.MapReruns - d.MapReruns,

		TaskRetries:   c.TaskRetries - d.TaskRetries,
		WastedCost:    c.WastedCost.Sub(d.WastedCost),
		Cancellations: c.Cancellations - d.Cancellations,
		TaskPanics:    c.TaskPanics - d.TaskPanics,

		SpeculativeLaunches: c.SpeculativeLaunches - d.SpeculativeLaunches,
		SpeculativeWins:     c.SpeculativeWins - d.SpeculativeWins,
		NodesBlacklisted:    c.NodesBlacklisted - d.NodesBlacklisted,
		FetchFailures:       c.FetchFailures - d.FetchFailures,
		StagesRerun:         c.StagesRerun - d.StagesRerun,
		ReReplicatedBlocks:  c.ReReplicatedBlocks - d.ReReplicatedBlocks,
		BlockReadRetries:    c.BlockReadRetries - d.BlockReadRetries,

		LocalityLocal:  c.LocalityLocal - d.LocalityLocal,
		LocalityRemote: c.LocalityRemote - d.LocalityRemote,
	}
}

// IsZero reports whether no counter recorded any activity.
func (c Counters) IsZero() bool { return c == (Counters{}) }

// TaskSpan is one executed task inside a stage: where the deterministic
// scheduler placed it and when it ran, relative to the start of the stage
// body (i.e. after the stage's fixed scheduling overhead).
type TaskSpan struct {
	Index    int           `json:"index"`    // task index within the stage
	Node     int           `json:"node"`     // simulated node the task ran on
	Core     int           `json:"core"`     // core within that node
	Start    time.Duration `json:"start"`    // offset from stage-body start
	End      time.Duration `json:"end"`      // offset from stage-body start
	Attempts int           `json:"attempts"` // 1 = first attempt succeeded
	Remote   bool          `json:"remote"`   // input read over the network
	Cost     sim.Cost      `json:"cost"`     // metered resource demand
}

// Duration returns the task's virtual service time.
func (t TaskSpan) Duration() time.Duration { return t.End - t.Start }

// StageSpan is one executed stage with its task schedule.
type StageSpan struct {
	Name     string        `json:"name"`
	Overhead time.Duration `json:"overhead"` // fixed scheduling cost
	Makespan time.Duration `json:"makespan"` // overhead + schedule length
	Total    sim.Cost      `json:"total"`    // summed task cost
	Tasks    []TaskSpan    `json:"tasks"`
}

// SpanFromSchedule converts one scheduled stage — the report plus the
// per-task placements the deterministic scheduler produced — into a
// StageSpan. costs and attempts are indexed like the stage's tasks; missing
// entries default to a zero cost and a single attempt.
func SpanFromSchedule(rep sim.StageReport, overhead time.Duration,
	placements []sim.TaskPlacement, costs []sim.Cost, attempts []int) StageSpan {
	span := StageSpan{
		Name:     rep.Name,
		Overhead: overhead,
		Makespan: rep.Makespan,
		Total:    rep.Total,
		Tasks:    make([]TaskSpan, len(placements)),
	}
	for i, pl := range placements {
		t := TaskSpan{
			Index: pl.Task, Node: pl.Node, Core: pl.Core,
			Start: pl.Start, End: pl.End, Attempts: 1, Remote: pl.Remote,
		}
		if i < len(costs) {
			t.Cost = costs[i]
		}
		if i < len(attempts) && attempts[i] > 0 {
			t.Attempts = attempts[i]
		}
		span.Tasks[i] = t
	}
	return span
}

// JobSpan is one executed job: an RDD action or one MapReduce job.
type JobSpan struct {
	Engine   string        `json:"engine"` // "rdd" or "mapreduce"
	Name     string        `json:"name"`
	Pass     int           `json:"pass"`     // mining pass k (0 = outside any pass)
	Overhead time.Duration `json:"overhead"` // startup time before the first stage
	Stages   []StageSpan   `json:"stages"`
	// Open marks a job snapshot taken while the job was still running (a
	// live scrape, or a partial flush after an interrupt): its Overhead is
	// unknown and more stages may follow.
	Open bool `json:"open,omitempty"`
}

// Duration returns the job's total virtual time, matching sim.JobReport:
// overhead plus the sum of sequential stage makespans.
func (j *JobSpan) Duration() time.Duration {
	d := j.Overhead
	for _, s := range j.Stages {
		d += s.Makespan
	}
	return d
}

// Recorder accumulates spans and counters from one run. It is safe for
// concurrent use: tasks on worker goroutines increment counters while the
// driver opens and closes jobs. All methods are nil-safe; a nil *Recorder
// is the disabled, zero-overhead configuration.
type Recorder struct {
	mu       sync.Mutex
	counters Counters
	jobs     []JobSpan
	cur      *JobSpan
	pass     int
	reg      *Registry
	events   []Event
}

// Event is one discrete lifecycle occurrence outside the span tree — shuffle
// state reclaimed at a pass boundary, or map output dropped with a lost node.
// Job anchors the event on the virtual timeline: it is the number of jobs
// already closed when the event fired, so replay tools order events between
// job i-1 finishing and job i starting.
type Event struct {
	Job    int    `json:"job"`
	Kind   string `json:"kind"` // "shuffle_free" or "shuffle_drop"
	Name   string `json:"name"` // shuffle (stage) name
	Slices int64  `json:"slices"`
	Bytes  int64  `json:"bytes"`
}

// New creates an empty recorder.
func New() *Recorder { return &Recorder{} }

// Enabled reports whether telemetry is being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// SetPass tags subsequently recorded jobs with mining pass k, attributing
// them to one level of the candidate lattice.
func (r *Recorder) SetPass(k int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pass = k
	r.mu.Unlock()
}

// BeginJob opens a job span. Drivers run jobs sequentially, so at most one
// job is open per recorder at a time; an unterminated previous job is closed
// implicitly.
func (r *Recorder) BeginJob(engine, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		r.jobs = append(r.jobs, *r.cur)
	}
	r.cur = &JobSpan{Engine: engine, Name: name, Pass: r.pass}
}

// AddStage appends a completed stage to the open job. A stage recorded
// outside any job is attached to a synthetic job of the same name. Each
// task's scheduled duration also feeds the per-engine duration histogram.
func (r *Recorder) AddStage(s StageSpan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur == nil {
		r.cur = &JobSpan{Engine: "unknown", Name: s.Name, Pass: r.pass}
	}
	r.cur.Stages = append(r.cur.Stages, s)
	if len(s.Tasks) > 0 {
		reg := r.metricsLocked()
		engine := r.cur.Engine
		h := reg.Histogram("yafim_task_duration_seconds",
			"Virtual duration of each scheduled task attempt interval.",
			DurationBuckets, "engine", engine)
		for _, t := range s.Tasks {
			h.Observe(t.Duration().Seconds())
		}
		reg.Counter("yafim_tasks_total",
			"Tasks scheduled, by engine.", "engine", engine).
			Add(float64(len(s.Tasks)))
	}
}

// EndJob closes the open job span, recording its final startup/driver
// overhead (known only at job end, e.g. naive-shipping uplink time).
func (r *Recorder) EndJob(overhead time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur == nil {
		return
	}
	r.cur.Overhead = overhead
	r.jobs = append(r.jobs, *r.cur)
	r.cur = nil
}

// Jobs returns a copy of every recorded job span, in execution order. A job
// still running is included as a trailing snapshot with Open set, so partial
// flushes (an interrupt mid-job) and live scrapes see the stages recorded so
// far instead of silently losing the in-flight job.
func (r *Recorder) Jobs() []JobSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobSpan, len(r.jobs), len(r.jobs)+1)
	copy(out, r.jobs)
	if r.cur != nil {
		open := *r.cur
		open.Open = true
		open.Stages = append([]StageSpan(nil), r.cur.Stages...)
		out = append(out, open)
	}
	return out
}

// Metrics returns the recorder's metrics registry, creating it on first use.
// Nil recorders return a nil registry, on which every operation is a no-op.
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metricsLocked()
}

// metricsLocked lazily creates the registry; callers hold r.mu. Lock order
// is always Recorder.mu before Registry.mu, never the reverse.
func (r *Recorder) metricsLocked() *Registry {
	if r.reg == nil {
		r.reg = NewRegistry()
	}
	return r.reg
}

// AddEvent records one lifecycle event, anchored after the most recently
// closed job.
func (r *Recorder) AddEvent(kind, name string, slices, bytes int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, Event{
		Job: len(r.jobs), Kind: kind, Name: name, Slices: slices, Bytes: bytes,
	})
	r.mu.Unlock()
}

// Events returns a copy of the recorded lifecycle events, in order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// ObservePass records the shape of one mining pass: the lattice depth k the
// engine has reached and the candidate-set size it is about to count. This
// is the per-pass workload signal the data-structure study (which kernel
// wins depends on candidate count and depth) needs from production runs.
func (r *Recorder) ObservePass(engine string, k, candidates int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	reg := r.metricsLocked()
	reg.Gauge("yafim_pass_depth",
		"Deepest mining pass the engine has started.", "engine", engine).
		Set(float64(k))
	reg.Histogram("yafim_candidate_set_size",
		"Candidate itemsets generated per mining pass.",
		CountBuckets, "engine", engine).
		Observe(float64(candidates))
	reg.Counter("yafim_candidates_total",
		"Candidate itemsets generated across all passes.", "engine", engine).
		Add(float64(candidates))
}

// ObservePartitionOutput records the output volume of one task's partition
// (rows emitted and their serialized bytes) — the raw material of the
// per-stage skew analysis.
func (r *Recorder) ObservePartitionOutput(engine, stage string, rows int, bytes int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	reg := r.metricsLocked()
	reg.Histogram("yafim_partition_output_rows",
		"Rows emitted per task partition.", CountBuckets, "engine", engine).
		Observe(float64(rows))
	reg.Histogram("yafim_partition_output_bytes",
		"Bytes emitted per task partition.", SizeBuckets, "engine", engine).
		Observe(float64(bytes))
	// Stage names are low-cardinality here (one per pass and phase), so a
	// per-stage total is affordable and locates skew without the span tree.
	reg.Counter("yafim_stage_output_rows_total",
		"Rows emitted per stage across all its partitions.",
		"engine", engine, "stage", stage).
		Add(float64(rows))
}

// Counters returns a snapshot of the counter totals.
func (r *Recorder) Counters() Counters {
	if r == nil {
		return Counters{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters
}

// Counter mutators. Each is nil-safe and cheap enough for task hot paths.

// AddCacheHit records one cached-partition reuse.
func (r *Recorder) AddCacheHit() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.CacheHits++
	r.mu.Unlock()
}

// AddCacheMiss records one lookup of a cache-enabled partition that was not
// resident.
func (r *Recorder) AddCacheMiss() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.CacheMisses++
	r.mu.Unlock()
}

// AddEvictions records n partitions dropped from executor memory (LRU
// pressure, node loss, or explicit cache drops).
func (r *Recorder) AddEvictions(n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.CacheEvictions += n
	r.mu.Unlock()
}

// AddRecomputes records n partition computations that repeated work already
// done earlier in the run — the cost of a missing or evicted cache entry.
func (r *Recorder) AddRecomputes(n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.LineageRecomputes += n
	r.mu.Unlock()
}

// AddBroadcastBytes records payload distributed via broadcast variables.
func (r *Recorder) AddBroadcastBytes(n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.BroadcastBytes += n
	r.mu.Unlock()
}

// AddNaiveShipBytes records payload shipped per-task through the driver
// under the naive (no-broadcast) configuration.
func (r *Recorder) AddNaiveShipBytes(n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.NaiveShipBytes += n
	r.mu.Unlock()
}

// AddShuffleBytes records bytes fetched across the network by reduce-side
// shuffle reads.
func (r *Recorder) AddShuffleBytes(n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.ShuffleBytes += n
	r.mu.Unlock()
}

// AddShuffleResident adjusts the shuffle-resident-bytes gauge by the signed
// delta n: positive when a map task's output is committed to executor
// memory, negative when it is freed, invalidated, or lost with a node. The
// running level also feeds the registry: a live gauge plus a histogram of
// the levels seen after each change, i.e. resident bytes over time.
func (r *Recorder) AddShuffleResident(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.counters.ShuffleResidentBytes += n
	level := r.counters.ShuffleResidentBytes
	reg := r.metricsLocked()
	r.mu.Unlock()
	reg.Gauge("yafim_shuffle_resident_bytes_live",
		"Map-output bytes currently resident in executor memory.").
		Set(float64(level))
	reg.Histogram("yafim_shuffle_resident_bytes_levels",
		"Resident shuffle byte levels observed after each commit or free.",
		SizeBuckets).
		Observe(float64(level))
}

// AddShuffleFrees records n map-output slices reclaimed (the facade's
// pass-boundary free, Context.Close, or a node loss).
func (r *Recorder) AddShuffleFrees(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.counters.ShuffleFrees += n
	r.mu.Unlock()
}

// AddMapReruns records n map tasks re-executed from lineage to regenerate
// shuffle output destroyed by a node loss.
func (r *Recorder) AddMapReruns(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.counters.MapReruns += n
	r.mu.Unlock()
}

// AddDFSRead records bytes served by the distributed file system.
func (r *Recorder) AddDFSRead(n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.DFSReadBytes += n
	r.mu.Unlock()
}

// AddDFSWrite records bytes ingested by the distributed file system,
// including replication.
func (r *Recorder) AddDFSWrite(n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.DFSWriteBytes += n
	r.mu.Unlock()
}

// AddRetries records n failed task attempts and the virtual cost their
// discarded work burned.
func (r *Recorder) AddRetries(n int64, wasted sim.Cost) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.TaskRetries += n
	r.counters.WastedCost = r.counters.WastedCost.Add(wasted)
	r.mu.Unlock()
}

// AddCancellations records n stages aborted by cooperative cancellation.
func (r *Recorder) AddCancellations(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.counters.Cancellations += n
	r.mu.Unlock()
}

// AddTaskPanics records n task attempts that panicked in a user closure and
// were recovered into typed task errors by the worker.
func (r *Recorder) AddTaskPanics(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.counters.TaskPanics += n
	r.mu.Unlock()
}

// AddLocality records the placement outcome of tasks that carried a
// locality preference: local ran on a preferred node, remote paid a network
// read instead.
func (r *Recorder) AddLocality(local, remote int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.LocalityLocal += local
	r.counters.LocalityRemote += remote
	r.mu.Unlock()
}

// AddSpeculation records one stage's speculative-execution outcome: backup
// copies launched and backups that beat their original attempt.
func (r *Recorder) AddSpeculation(launched, won int64) {
	if r == nil || (launched == 0 && won == 0) {
		return
	}
	r.mu.Lock()
	r.counters.SpeculativeLaunches += launched
	r.counters.SpeculativeWins += won
	r.mu.Unlock()
}

// AddBlacklistings records n nodes entering a blacklist window after
// repeated task failures.
func (r *Recorder) AddBlacklistings(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.counters.NodesBlacklisted += n
	r.mu.Unlock()
}

// AddFetchFailure records one shuffle fetch that found a map output missing
// and triggered parent re-execution.
func (r *Recorder) AddFetchFailure() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.FetchFailures++
	r.mu.Unlock()
}

// AddStageRerun records one stage (or stage fragment) re-executed to
// regenerate lost intermediate data.
func (r *Recorder) AddStageRerun() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.StagesRerun++
	r.mu.Unlock()
}

// AddReReplicatedBlocks records n DFS blocks whose replication factor was
// restored after a node loss.
func (r *Recorder) AddReReplicatedBlocks(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.counters.ReReplicatedBlocks += n
	r.mu.Unlock()
}

// AddBlockReadRetry records one DFS block read that failed on its first
// replica and was served by another.
func (r *Recorder) AddBlockReadRetry() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters.BlockReadRetries++
	r.mu.Unlock()
}
