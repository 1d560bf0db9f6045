// Package dist is the one way mining code runs a MapReduce job: an executor
// abstraction whose jobs — described in wire-neutral, serializable form —
// run either on the deterministic virtual-time simulator (see Local) or
// across real operating-system processes (see Master and RunWorker).
//
// The real runtime follows the classic Hadoop/MIT-6.824 master/worker
// shape: workers register with the master over HTTP, send periodic
// heartbeats to a liveness monitor, and pull work as time-bounded task
// leases. A worker that misses its heartbeat window or overruns a lease is
// struck (reusing chaos.NodeHealth's blacklist semantics) and its in-flight
// tasks — plus any already-served map-output partitions — are reassigned
// and recomputed, exactly the map-recover/FetchFailed path the simulator's
// shuffle lifecycle plays out in virtual time. Map output is served by the
// worker that produced it over HTTP; reducers fetch with capped
// exponential-backoff retries (exec.Backoff) and report irrecoverable
// fetches back to the master so the lost map re-runs elsewhere.
//
// The package is algorithm-agnostic: mining code registers its map/reduce
// closures as named job types (see RegisterJobType) and drives jobs through
// the Executor interface; the same registered closures execute under both
// implementations, which is what makes byte-identical parity between a real
// multi-process run and the simulator a testable property rather than a
// hope.
package dist

import (
	"context"
	"encoding/json"
	"time"

	"yafim/internal/mapreduce"
)

// KV is one job output record, shared with the sim engine.
type KV = mapreduce.KV

// JobSpec describes one MapReduce job in engine-neutral form: everything an
// executor needs is a registered job type, its parameters, an input file,
// task counts and the distributed-cache contents.
type JobSpec struct {
	// Name labels the job in logs and journals.
	Name string `json:"name"`
	// Type names a registered job type (see RegisterJobType).
	Type string `json:"type"`
	// Params is the job type's opaque parameter blob.
	Params json.RawMessage `json:"params,omitempty"`
	// InputPath is the transaction file: a DFS path under Local, a path on
	// the real file system under Master. Every worker must see the same
	// path (same machine or shared storage, the Hadoop-on-NFS deployment
	// shape).
	InputPath string `json:"input_path"`
	// NumMaps is the minimum map-task count; the input is cut into at
	// least this many line-aligned splits when it is large enough. Zero
	// takes the executor's default.
	NumMaps int `json:"num_maps"`
	// NumReducers is the reduce-task count. Zero takes the executor's
	// default.
	NumReducers int `json:"num_reducers"`
	// Cache holds the distributed-cache files by name (the candidate
	// files, for the mining jobs). Workers fetch each name once per job
	// from the master; Local stages each into its DFS at the name.
	Cache map[string][]byte `json:"-"`
}

// JobOutput is a completed job's result.
type JobOutput struct {
	// KVs is the concatenated reducer output in reduce-partition order.
	KVs []KV
	// MapInputRecords counts the input records the map stage consumed
	// (each map task counted once, however many times it was attempted) —
	// the driver's Hadoop-counter substitute.
	MapInputRecords int64
	// Duration is how long the job took: virtual cluster time under the
	// sim executor, wall-clock time under the real runtime.
	Duration time.Duration
}

// Executor runs jobs. Implementations: Local (the in-memory virtual-time
// engine) and Master (the real multi-process runtime).
type Executor interface {
	// ExecJob runs one job to completion and returns its output. The
	// context cancels the job cooperatively at a task boundary.
	ExecJob(ctx context.Context, job *JobSpec) (*JobOutput, error)
}

// Split is one map task's byte range of the real input file. Its lines are
// read by the sim DFS's own line record reader and parsed into the map
// task's rows (see readRecords).
type Split struct {
	Path   string `json:"path"`
	Offset int64  `json:"offset"`
	Length int64  `json:"length"`
}

// TaskSpec is one leased task on the wire.
type TaskSpec struct {
	// Job and Seq identify the job this task belongs to; Seq increases
	// monotonically per master so stale completions are detectable.
	Job string `json:"job"`
	Seq int    `json:"seq"`
	// Type and Params name the registered job type to instantiate.
	Type   string          `json:"type"`
	Params json.RawMessage `json:"params,omitempty"`
	// Phase is "map" or "reduce"; Index the task index within the phase;
	// Attempt the 1-based attempt number of this lease.
	Phase   string `json:"phase"`
	Index   int    `json:"index"`
	Attempt int    `json:"attempt"`
	// NumMaps and NumReducers shape the job's partitioning.
	NumMaps     int `json:"num_maps"`
	NumReducers int `json:"num_reducers"`
	// Split is the map task's input range (map tasks only).
	Split Split `json:"split,omitempty"`
	// CacheNames lists the distributed-cache files to fetch from the
	// master before running.
	CacheNames []string `json:"cache_names,omitempty"`
	// MapAddrs, for reduce tasks, is the HTTP address serving each map
	// task's output, indexed by map task.
	MapAddrs []string `json:"map_addrs,omitempty"`
}

// PhaseMap and PhaseReduce are the TaskSpec.Phase values.
const (
	PhaseMap    = "map"
	PhaseReduce = "reduce"
)

// OutputAd re-advertises one map output the registering worker still serves
// from a previous registration. A worker that outlives a master restart (or
// its own declared death) carries its completed partitions in memory; the
// master rebinds each advertised output to the fresh worker id — provided
// its table agrees a dead worker at the same address produced it — instead
// of recomputing the map.
type OutputAd struct {
	Seq int `json:"seq"`
	Map int `json:"map"`
}

// CacheStats is a worker's cumulative input-block-cache counters, reported
// on every heartbeat and completion. Values are monotonic within one worker
// incarnation; the master folds the per-report deltas into its /metrics
// counters, so a fresh incarnation (which re-registers and re-baselines)
// never double-counts.
type CacheStats struct {
	// Seq orders reports from one incarnation: register, heartbeat and
	// complete all carry cache state, and HTTP gives no ordering across
	// them, so the master drops any report whose Seq is not newer than the
	// last one ingested — a heartbeat built before a map finished must not
	// clobber the completion's fresher inventory. Zero means "unordered"
	// (accepted unconditionally; the unit-test entry point).
	Seq int64 `json:"seq,omitempty"`
	// Reads counts splits parsed from disk (cache misses that hit the file).
	Reads int64 `json:"reads,omitempty"`
	// Hits and Misses count cache lookups.
	Hits   int64 `json:"hits,omitempty"`
	Misses int64 `json:"misses,omitempty"`
	// Evictions counts blocks dropped to stay under the byte budget.
	Evictions int64 `json:"evictions,omitempty"`
	// Bytes is the resident parsed-block footprint right now.
	Bytes int64 `json:"bytes,omitempty"`
}

// RegisterRequest announces a worker to the master. Addr is the worker's
// reachable HTTP address for map-output fetches. Outputs re-advertises map
// outputs still served from a previous incarnation, if any; Cached likewise
// re-advertises the input blocks already parsed in its cache, so a rejoining
// worker regains its placement preference immediately.
type RegisterRequest struct {
	Addr    string     `json:"addr"`
	Outputs []OutputAd `json:"outputs,omitempty"`
	Cached  []Split    `json:"cached,omitempty"`
	Cache   CacheStats `json:"cache,omitempty"`
}

// RegisterResponse assigns the worker its id, the heartbeat cadence the
// liveness monitor expects, and the input-block-cache byte budget
// (Tuning.InputCacheBytes — the master owns the knob so every worker runs
// the same policy).
type RegisterResponse struct {
	WorkerID        int   `json:"worker_id"`
	HeartbeatMs     int64 `json:"heartbeat_ms"`
	InputCacheBytes int64 `json:"input_cache_bytes,omitempty"`
}

// HeartbeatRequest is the worker's periodic liveness signal. Cached is the
// worker's current input-block inventory — each report replaces the master's
// view wholesale, so evictions propagate as silently as insertions — and
// Cache its cumulative cache counters.
type HeartbeatRequest struct {
	WorkerID int        `json:"worker_id"`
	Cached   []Split    `json:"cached,omitempty"`
	Cache    CacheStats `json:"cache,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat. Rejoin tells a worker the
// master no longer knows it (declared dead, or a master restart): it must
// re-register before doing anything else.
type HeartbeatResponse struct {
	OK     bool `json:"ok"`
	Rejoin bool `json:"rejoin,omitempty"`
}

// LeaseRequest asks for work.
type LeaseRequest struct {
	WorkerID int `json:"worker_id"`
}

// LeaseResponse carries at most one leased task. The master holds a request
// that finds nothing runnable until a transition may have made a task
// runnable or one HeartbeatInterval passes; a nil Task means that interval
// passed with nothing for this worker (no job, the job between phases, or
// the worker blacklisted), and the worker asks again at once. Rejoin as in
// heartbeats.
type LeaseResponse struct {
	Task   *TaskSpec `json:"task,omitempty"`
	Rejoin bool      `json:"rejoin,omitempty"`
}

// CompleteRequest reports one finished task attempt.
type CompleteRequest struct {
	WorkerID int    `json:"worker_id"`
	Seq      int    `json:"seq"`
	Phase    string `json:"phase"`
	Index    int    `json:"index"`
	Attempt  int    `json:"attempt"`
	// OK distinguishes success from failure; Error carries the failure
	// message.
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// FailedMaps lists map tasks whose output could not be fetched after
	// the retry budget (reduce failures only): the master invalidates and
	// re-runs them, the real FetchFailed protocol.
	FailedMaps []int `json:"failed_maps,omitempty"`
	// InputRecords is the map task's input record count (map successes).
	InputRecords int64 `json:"input_records,omitempty"`
	// Output is the reduce task's full output (reduce successes). Small
	// by construction for the mining jobs — reducers emit aggregates.
	Output []KV `json:"output,omitempty"`
	// Cached and Cache piggyback the worker's input-block inventory and
	// cumulative cache counters on the completion, exactly as on a
	// heartbeat: a map task that just parsed a split advertises it before
	// the next pass's leases are cut, not one heartbeat later.
	Cached []Split    `json:"cached,omitempty"`
	Cache  CacheStats `json:"cache,omitempty"`
}

// CompleteResponse acknowledges a completion. Duplicate completions (a
// zombie worker finishing a task the master already re-ran) are accepted
// idempotently.
type CompleteResponse struct {
	Accepted bool `json:"accepted"`
	Rejoin   bool `json:"rejoin,omitempty"`
}
