package dist

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"yafim/internal/chaos"
	"yafim/internal/obs"
)

// Tuning parameterises the master's liveness and lease protocol. All
// durations are real time on a live master; the state machine itself only
// ever sees explicit "now" values, which is what lets the unit tests and
// the lease fuzzer drive it on a virtual clock, deterministically.
type Tuning struct {
	// HeartbeatInterval is the cadence workers are told to beat at.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a worker dead when now - lastBeat exceeds
	// it (a beat landing exactly on the deadline still counts).
	HeartbeatTimeout time.Duration
	// LeaseDeadline bounds one task attempt; an overrun lease returns the
	// task to the idle pool and strikes the worker.
	LeaseDeadline time.Duration
	// MaxWorkers caps registrations (worker ids are never reused).
	MaxWorkers int
	// MaxTaskAttempts fails the job when one task burns this many leases.
	MaxTaskAttempts int
	// BlacklistAfter and BlacklistBase configure the per-worker strike
	// blacklist, with chaos.NodeHealth's exact semantics: after
	// BlacklistAfter strikes a worker is benched for BlacklistBase,
	// doubling per further strike (exec.Backoff arithmetic).
	BlacklistAfter int
	// BlacklistBase is the first blacklist window.
	BlacklistBase time.Duration
	// InputCacheBytes is each worker's budget for its input-block cache,
	// counted in the resident bytes of the parsed records it holds (the
	// runtime's analogue of YAFIM's cached transactions RDD: each split read
	// and parsed once, every later pass mapped from memory). Delivered to
	// workers at registration; zero selects the default, negative is
	// rejected.
	InputCacheBytes int64
}

// DefaultTuning returns the production-shaped defaults; tests shrink them.
func DefaultTuning() Tuning {
	return Tuning{
		HeartbeatInterval: 250 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		LeaseDeadline:     30 * time.Second,
		MaxWorkers:        64,
		MaxTaskAttempts:   8,
		BlacklistAfter:    3,
		BlacklistBase:     5 * time.Second,
		InputCacheBytes:   256 << 20,
	}
}

// InputError reports a Tuning field rejected at the API boundary, mirroring
// the facade's yafim.Options validation: the caller named a value that can
// never mean anything, as opposed to the zero values withDefaults fills in.
type InputError struct {
	Field  string
	Reason string
}

func (e *InputError) Error() string {
	return fmt.Sprintf("dist: invalid %s: %s", e.Field, e.Reason)
}

// Validate rejects nonsensical tunings with a typed *InputError. Zero fields
// stay legal — they select defaults — but negative durations and budgets,
// which withDefaults would otherwise silently replace, are refused, as is a
// heartbeat timeout shorter than the interval workers are told to beat at
// (every worker would be declared dead between two honest beats).
func (t Tuning) Validate() error {
	for _, f := range []struct {
		name string
		v    time.Duration
	}{
		{"HeartbeatInterval", t.HeartbeatInterval},
		{"HeartbeatTimeout", t.HeartbeatTimeout},
		{"LeaseDeadline", t.LeaseDeadline},
		{"BlacklistBase", t.BlacklistBase},
	} {
		if f.v < 0 {
			return &InputError{Field: "Tuning." + f.name, Reason: "must not be negative"}
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"MaxWorkers", t.MaxWorkers},
		{"MaxTaskAttempts", t.MaxTaskAttempts},
		{"BlacklistAfter", t.BlacklistAfter},
	} {
		if f.v < 0 {
			return &InputError{Field: "Tuning." + f.name, Reason: "must not be negative"}
		}
	}
	if t.InputCacheBytes < 0 {
		return &InputError{Field: "Tuning.InputCacheBytes", Reason: "must not be negative"}
	}
	if t.HeartbeatInterval > 0 && t.HeartbeatTimeout > 0 && t.HeartbeatTimeout < t.HeartbeatInterval {
		return &InputError{Field: "Tuning.HeartbeatTimeout",
			Reason: "shorter than HeartbeatInterval; every worker would be declared dead between beats"}
	}
	return nil
}

// withDefaults fills zero fields from DefaultTuning.
func (t Tuning) withDefaults() Tuning {
	d := DefaultTuning()
	if t.HeartbeatInterval <= 0 {
		t.HeartbeatInterval = d.HeartbeatInterval
	}
	if t.HeartbeatTimeout <= 0 {
		t.HeartbeatTimeout = d.HeartbeatTimeout
	}
	if t.LeaseDeadline <= 0 {
		t.LeaseDeadline = d.LeaseDeadline
	}
	if t.MaxWorkers <= 0 {
		t.MaxWorkers = d.MaxWorkers
	}
	if t.MaxTaskAttempts <= 0 {
		t.MaxTaskAttempts = d.MaxTaskAttempts
	}
	if t.BlacklistAfter <= 0 {
		t.BlacklistAfter = d.BlacklistAfter
	}
	if t.BlacklistBase <= 0 {
		t.BlacklistBase = d.BlacklistBase
	}
	if t.InputCacheBytes <= 0 {
		t.InputCacheBytes = d.InputCacheBytes
	}
	return t
}

type taskState int

const (
	taskIdle taskState = iota
	taskRunning
	taskDone
)

// trackedTask is one task's scheduling state on the master.
type trackedTask struct {
	phase string
	index int
	split Split

	state       taskState
	worker      int           // lease owner while running; producer once done
	leaseExpiry time.Duration // valid while running
	attempts    int           // leases granted so far

	// deferUntil implements the locality grace window (maps only): the
	// first time a worker that does NOT cache this split asks for it while
	// some other live worker does, the grant is deferred until this
	// deadline so the caching worker — an idle one is woken by the job
	// start — can claim its own block. Past the deadline anyone gets it:
	// the preference can cost at most one bounded wait, never a stall.
	deferUntil time.Duration

	addr         string // map: producer's serving address once done
	inputRecords int64  // map: reported input record count
	output       []KV   // reduce: reported output
}

// workerState is one registered worker on the master.
type workerState struct {
	id       int
	addr     string
	lastBeat time.Duration
	dead     bool

	// cached is the worker's advertised input-block inventory, replaced
	// wholesale by each report; lastCache is its latest cumulative cache
	// counters, the baseline for folding per-report deltas into metrics.
	cached    map[Split]struct{}
	lastCache CacheStats
}

// distJob is the currently executing job's scheduling state.
type distJob struct {
	spec        *JobSpec
	seq         int
	maps        []*trackedTask
	reduces     []*trackedTask
	mapsDone    int
	reducesDone int
	failure     error
	doneCh      chan struct{} // closed once (all reduces done) or failure set

	// suspended marks a job restored from the journal that no driver has
	// re-attached to yet: its completed work is held, but no lease is
	// granted until the resumed driver re-submits it (supplying the parts
	// the journal never holds, notably the distributed-cache blobs).
	suspended bool
}

func (j *distJob) finished() bool {
	return j.failure != nil || j.reducesDone == len(j.reduces)
}

// metrics is the master's counter surface; all handles are nil-safe so a
// metrics-less table (unit tests) costs nothing.
type metrics struct {
	heartbeats    *obs.Counter
	leaseGrants   *obs.Counter
	leaseExpiries *obs.Counter
	workerDeaths  *obs.Counter
	blacklists    *obs.Counter
	mapsRecovered *obs.Counter
	fetchFailures *obs.Counter
	duplicates    *obs.Counter
	taskFailures  *obs.Counter
	liveWorkers   *obs.Gauge

	inputReads     *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheBytes     *obs.Gauge
	localGrants    *obs.Counter
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		heartbeats:    reg.Counter("dist_heartbeats_total", "worker heartbeats received"),
		leaseGrants:   reg.Counter("dist_lease_grants_total", "task leases granted"),
		leaseExpiries: reg.Counter("dist_lease_expiries_total", "task leases that overran their deadline"),
		workerDeaths:  reg.Counter("dist_worker_deaths_total", "workers declared dead by the liveness monitor"),
		blacklists:    reg.Counter("dist_worker_blacklists_total", "blacklist windows opened on workers"),
		mapsRecovered: reg.Counter("dist_map_outputs_recovered_total", "completed map tasks invalidated and re-run after output loss"),
		fetchFailures: reg.Counter("dist_fetch_failures_total", "map outputs reported unfetchable by reducers"),
		duplicates:    reg.Counter("dist_duplicate_completions_total", "idempotently ignored duplicate task completions"),
		taskFailures:  reg.Counter("dist_task_failures_total", "task attempts reported failed by workers"),
		liveWorkers:   reg.Gauge("dist_live_workers", "registered workers not declared dead"),

		inputReads:     reg.Counter("dist_input_reads_total", "input splits parsed from disk across all workers"),
		cacheHits:      reg.Counter("dist_input_cache_hits_total", "input splits served from worker block caches"),
		cacheMisses:    reg.Counter("dist_input_cache_misses_total", "input block cache lookups that missed"),
		cacheEvictions: reg.Counter("dist_input_cache_evictions_total", "input blocks evicted to stay under the byte budget"),
		cacheBytes:     reg.Gauge("dist_input_cache_bytes", "parsed input bytes resident in live workers' block caches"),
		localGrants:    reg.Counter("dist_local_lease_grants_total", "map leases granted to a worker already caching the split"),
	}
}

// leaseTable is the master's scheduling core: worker registration and
// liveness, task leases with deadlines, completion bookkeeping, and the
// recovery actions (reassignment, map-output invalidation, blacklisting)
// that keep a job finishing while workers die around it. Every method takes
// the current time explicitly; the table never reads a clock.
type leaseTable struct {
	mu      sync.Mutex
	cfg     Tuning
	health  *chaos.NodeHealth // blacklist + dead bookkeeping, indexed by worker id-1
	workers []*workerState
	job     *distJob
	nextSeq int

	// finished memoizes the outputs of jobs completed before the last master
	// restart, keyed by name. Populated only by journal replay: within one
	// master lifetime a re-submitted name re-executes as it always did, but
	// the resumed deterministic driver re-requesting passes the old
	// incarnation already finished gets them back instantly.
	finished map[string]*JobOutput

	// wake is closed and replaced on every transition that can make a task
	// runnable, releasing the lease requests the master holds (see
	// Master.handleLease). Time-driven changes — a locality deferral or a
	// blacklist window running out — do not close it; a held request sees
	// those when its hold bound passes.
	wake chan struct{}

	wal *wal          // write-ahead journal, nil-safe
	log *obs.EventLog // nil-safe
	m   metrics
}

func newLeaseTable(cfg Tuning, log *obs.EventLog, reg *obs.Registry) *leaseTable {
	cfg = cfg.withDefaults()
	return &leaseTable{
		cfg: cfg,
		health: chaos.NewNodeHealth(cfg.MaxWorkers, chaos.Resilience{
			BlacklistAfter: cfg.BlacklistAfter,
			BlacklistBase:  cfg.BlacklistBase,
		}),
		finished: map[string]*JobOutput{},
		wake:     make(chan struct{}),
		log:      log,
		m:        newMetrics(reg),
	}
}

// changed returns the channel the next runnable-making transition closes.
// A caller takes it before asking for a lease, so no transition can slip in
// between an empty answer and the wait.
func (t *leaseTable) changed() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wake
}

// wakeLocked releases every waiter on the current wake channel.
func (t *leaseTable) wakeLocked() {
	close(t.wake)
	t.wake = make(chan struct{})
}

// errTooManyWorkers is returned when registration exceeds Tuning.MaxWorkers.
var errTooManyWorkers = fmt.Errorf("dist: worker capacity exhausted")

// register admits a worker and returns its 1-based id. A restarted process
// registers again and receives a fresh id; ids are never reused, so a
// zombie holding an old id can always be told apart.
//
// ads re-advertises map outputs the worker still serves from a previous
// registration. After a master restart every replayed worker is dead, yet
// the processes themselves may have survived with their output partitions
// intact; rebinding those outputs to the fresh id spares recomputing them.
// Each advertisement is honoured only if the done map is currently bound to
// a dead worker at the same address — the same process re-registering — so
// a confused or malicious worker cannot steal another's outputs.
func (t *leaseTable) register(addr string, ads []OutputAd, now time.Duration) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.workers) >= t.cfg.MaxWorkers {
		return 0, errTooManyWorkers
	}
	w := &workerState{id: len(t.workers) + 1, addr: addr, lastBeat: now}
	t.workers = append(t.workers, w)
	t.wal.append(walRecord{Rec: recRegister, Worker: w.id, Addr: addr}, false)
	t.m.liveWorkers.Add(1)
	t.log.Append(obs.LiveEvent{Event: "worker_register", Worker: w.id, Addr: addr})
	if t.job != nil && !t.job.finished() {
		for _, ad := range ads {
			if ad.Seq != t.job.seq || ad.Map < 0 || ad.Map >= len(t.job.maps) {
				continue
			}
			m := t.job.maps[ad.Map]
			if m.state != taskDone || m.addr != addr {
				continue
			}
			if old := t.workerLocked(m.worker); old == nil || !old.dead {
				continue
			}
			m.worker = w.id
			t.wal.append(walRecord{Rec: recMapRebind, Seq: t.job.seq, Phase: PhaseMap,
				Task: m.index + 1, Worker: w.id, Addr: addr}, false)
			t.log.Append(obs.LiveEvent{Event: "map_output_rebind", Worker: w.id,
				Job: t.job.spec.Name, Seq: t.job.seq, Phase: PhaseMap, Task: m.index + 1,
				Addr: addr})
		}
	}
	return w.id, nil
}

// worker resolves an id under the lock; nil when unknown.
func (t *leaseTable) workerLocked(id int) *workerState {
	if id < 1 || id > len(t.workers) {
		return nil
	}
	return t.workers[id-1]
}

// heartbeat refreshes a worker's liveness. The boolean reports whether the
// master still recognises the worker; false tells it to re-register.
func (t *leaseTable) heartbeat(id int, now time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.workerLocked(id)
	if w == nil || w.dead {
		return false
	}
	w.lastBeat = now
	t.m.heartbeats.Add(1)
	return true
}

// advertiseCache ingests one worker's input-block inventory and cumulative
// cache counters (register, heartbeat and complete all carry them). The
// inventory replaces the previous advertisement wholesale — evictions
// propagate exactly like insertions. Counter deltas against the worker's
// last report fold into the master metrics; baseline (registration) installs
// the report as the new delta floor WITHOUT counting it, because a rejoining
// incarnation already reported those values under its old id. Cache state is
// never journaled: a restarted master relearns placement from the first
// heartbeat of each surviving worker.
func (t *leaseTable) advertiseCache(id int, cached []Split, stats CacheStats, baseline bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.workerLocked(id)
	if w == nil || w.dead {
		return
	}
	// Reports race: a heartbeat built before a map finished can arrive
	// after that map's completion report. The worker stamps every report
	// with a monotonic Seq; anything not strictly newer than the last
	// ingested report is dropped whole, so a stale inventory can never
	// clobber a fresher one and counter deltas never regress.
	if stats.Seq != 0 && stats.Seq <= w.lastCache.Seq {
		return
	}
	w.cached = make(map[Split]struct{}, len(cached))
	for _, s := range cached {
		w.cached[s] = struct{}{}
	}
	if !baseline {
		t.m.inputReads.Add(float64(stats.Reads - w.lastCache.Reads))
		t.m.cacheHits.Add(float64(stats.Hits - w.lastCache.Hits))
		t.m.cacheMisses.Add(float64(stats.Misses - w.lastCache.Misses))
		t.m.cacheEvictions.Add(float64(stats.Evictions - w.lastCache.Evictions))
	}
	// The gauge tracks resident bytes across live workers, so it moves by
	// the delta on every report (from zero at registration) and is unwound
	// when the worker dies.
	t.m.cacheBytes.Add(float64(stats.Bytes - w.lastCache.Bytes))
	w.lastCache = stats
}

// sweep advances the liveness and lease clocks: workers whose last
// heartbeat is older than the timeout die (a beat exactly at the deadline
// survives), and running tasks whose lease expired return to the idle pool
// with a strike against the worker.
func (t *leaseTable) sweep(now time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.workers {
		if !w.dead && now-w.lastBeat > t.cfg.HeartbeatTimeout {
			t.markDeadLocked(w, "heartbeat_miss")
		}
	}
	if t.job == nil || t.job.finished() {
		return
	}
	for _, task := range append(append([]*trackedTask{}, t.job.maps...), t.job.reduces...) {
		if task.state != taskRunning || now <= task.leaseExpiry {
			continue
		}
		t.m.leaseExpiries.Add(1)
		t.log.Append(obs.LiveEvent{Event: "lease_expire", Worker: task.worker,
			Job: t.job.spec.Name, Seq: t.job.seq, Phase: task.phase,
			Task: task.index + 1, Attempt: task.attempts})
		t.strikeLocked(task.worker, now)
		task.state = taskIdle
		task.worker = 0
		t.failJobIfExhaustedLocked(task)
		t.wakeLocked()
	}
}

// markDeadLocked declares a worker dead: its running tasks and its served
// map outputs for the current job are lost and return to the idle pool.
func (t *leaseTable) markDeadLocked(w *workerState, reason string) {
	if w.dead {
		return
	}
	w.dead = true
	t.health.MarkDead(w.id - 1)
	t.wal.append(walRecord{Rec: recWorkerDead, Worker: w.id}, false)
	t.m.workerDeaths.Add(1)
	t.m.liveWorkers.Add(-1)
	// The block cache died with the process: retract its placement ads so
	// no lease defers in favour of a ghost, and unwind the resident-bytes
	// gauge.
	w.cached = nil
	t.m.cacheBytes.Add(-float64(w.lastCache.Bytes))
	w.lastCache.Bytes = 0
	t.log.Append(obs.LiveEvent{Event: "worker_dead", Worker: w.id, Addr: w.addr, Detail: reason})
	// Its tasks and lost outputs requeue below, and maps deferred for its
	// cache are no longer deferred.
	t.wakeLocked()
	if t.job == nil || t.job.finished() {
		return
	}
	for _, task := range append(append([]*trackedTask{}, t.job.maps...), t.job.reduces...) {
		switch {
		case task.state == taskRunning && task.worker == w.id:
			task.state = taskIdle
			task.worker = 0
			t.log.Append(obs.LiveEvent{Event: "task_reassign", Worker: w.id,
				Job: t.job.spec.Name, Seq: t.job.seq, Phase: task.phase,
				Task: task.index + 1, Detail: "owner died"})
		case task.state == taskDone && task.phase == PhaseMap && task.worker == w.id:
			// The dead worker was serving this map's output partitions;
			// they are gone with the process. Recompute — the distributed
			// twin of the sim's *:map-recover stage.
			task.state = taskIdle
			task.worker = 0
			task.addr = ""
			t.job.mapsDone--
			t.wal.append(walRecord{Rec: recMapLost, Seq: t.job.seq, Phase: PhaseMap,
				Task: task.index + 1}, true)
			t.m.mapsRecovered.Add(1)
			t.log.Append(obs.LiveEvent{Event: "map_output_lost", Worker: w.id,
				Job: t.job.spec.Name, Seq: t.job.seq, Phase: task.phase,
				Task: task.index + 1, Detail: reason})
		}
	}
}

// strikeLocked charges one failure to a worker, opening or extending its
// blacklist window when the strike budget is spent.
func (t *leaseTable) strikeLocked(id int, now time.Duration) {
	w := t.workerLocked(id)
	if w == nil || w.dead {
		return
	}
	t.wal.append(walRecord{Rec: recStrike, Worker: id}, false)
	if t.health.RecordFailure(id-1, now) {
		t.m.blacklists.Add(1)
		t.log.Append(obs.LiveEvent{Event: "worker_blacklist", Worker: id, Addr: w.addr})
	}
}

// failJobIfExhaustedLocked fails the whole job once a task has burned its
// attempt budget — the Hadoop "task failed 4 times" terminal condition. Both
// callers requeue the task first and wake held leases themselves.
func (t *leaseTable) failJobIfExhaustedLocked(task *trackedTask) {
	if t.job == nil || t.job.failure != nil || task.attempts < t.cfg.MaxTaskAttempts {
		return
	}
	t.job.failure = fmt.Errorf("dist: %s task %d failed %d attempts",
		task.phase, task.index, task.attempts)
	t.wal.append(walRecord{Rec: recJobFail, Job: t.job.spec.Name,
		Error: t.job.failure.Error()}, true)
	close(t.job.doneCh)
}

// startJob installs the next job's tasks and returns its handle. Exactly
// one job runs at a time (the mining passes are sequential by nature).
//
// When the table holds a suspended job restored from the journal, a
// re-submission with the same shape adopts it — completed tasks, attempt
// counts and map-output locations included — instead of starting over; the
// fresh spec supplies what the journal never held (cache blobs, params). A
// re-submission with a different shape is a resume mismatch: the operator
// pointed the master at the wrong journal, and silently discarding the
// replayed work would hide that.
func (t *leaseTable) startJob(spec *JobSpec, splits []Split) (*distJob, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.job != nil && t.job.suspended {
		j, adopted, err := t.adoptLocked(spec, splits)
		if adopted || err != nil {
			return j, err
		}
	}
	if t.job != nil && !t.job.finished() {
		return nil, fmt.Errorf("dist: job %s still running", t.job.spec.Name)
	}
	t.nextSeq++
	j := &distJob{spec: spec, seq: t.nextSeq, doneCh: make(chan struct{})}
	for i, s := range splits {
		j.maps = append(j.maps, &trackedTask{phase: PhaseMap, index: i, split: s})
	}
	for i := 0; i < spec.NumReducers; i++ {
		j.reduces = append(j.reduces, &trackedTask{phase: PhaseReduce, index: i})
	}
	t.job = j
	t.wal.append(walRecord{Rec: recJobStart, Job: spec.Name, Type: spec.Type,
		InputPath: spec.InputPath, Seq: j.seq, Splits: splits,
		NumReducers: spec.NumReducers}, true)
	t.log.Append(obs.LiveEvent{Event: "job_start", Job: spec.Name, Seq: j.seq,
		Detail: fmt.Sprintf("%d maps, %d reduces", len(j.maps), len(j.reduces))})
	t.wakeLocked()
	return j, nil
}

// adoptLocked matches a re-submitted job against the suspended replayed one.
// adopted reports whether the suspended job was taken over; on a shape
// mismatch against an unfinished job it returns the resume-mismatch error,
// and against a finished one it clears the leftover so startJob proceeds
// fresh (the finished job's output lives on in the memo table).
func (t *leaseTable) adoptLocked(spec *JobSpec, splits []Split) (j *distJob, adopted bool, err error) {
	j = t.job
	match := j.spec.Name == spec.Name && j.spec.Type == spec.Type &&
		len(j.maps) == len(splits) && len(j.reduces) == spec.NumReducers
	if match {
		for i, s := range splits {
			if j.maps[i].split != s {
				match = false
				break
			}
		}
	}
	if !match {
		if !j.finished() {
			return nil, false, fmt.Errorf(
				"dist: resume mismatch: journal holds job %s (%d maps, %d reduces), driver submitted %s (%d maps, %d reduces)",
				j.spec.Name, len(j.maps), len(j.reduces),
				spec.Name, len(splits), spec.NumReducers)
		}
		t.job = nil
		return nil, false, nil
	}
	j.spec = spec
	j.suspended = false
	t.log.Append(obs.LiveEvent{Event: "job_adopt", Job: spec.Name, Seq: j.seq,
		Detail: fmt.Sprintf("%d/%d maps, %d/%d reduces already done",
			j.mapsDone, len(j.maps), j.reducesDone, len(j.reduces))})
	t.wakeLocked()
	return j, true, nil
}

// lease hands the worker its next task, if any is runnable: map tasks while
// any map is idle, then — once every map output is in place — reduce tasks,
// whose specs embed the map-output locations. The boolean "rejoin" tells a
// dead or unknown worker to re-register.
func (t *leaseTable) lease(id int, now time.Duration) (spec *TaskSpec, rejoin bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.workerLocked(id)
	if w == nil || w.dead {
		return nil, true
	}
	if t.job == nil || t.job.finished() || t.job.suspended {
		// A suspended job grants nothing: the resumed driver has not
		// re-attached yet, so its cache blobs are not servable.
		return nil, false
	}
	if ex := t.health.Excluded(now); ex != nil && ex[id-1] {
		return nil, false // benched: ask again after the window
	}
	j := t.job
	// A lease request proves this worker is idle — its task loop is serial,
	// so it only asks when it is executing nothing. A task still recorded as
	// running under its id is therefore a grant whose response was lost in
	// transit (the at-least-once edge a lossy network hits routinely): left
	// alone it would strand until the lease deadline expires. Re-grant it
	// immediately, same attempt, fresh deadline.
	for _, task := range append(append([]*trackedTask{}, j.maps...), j.reduces...) {
		if task.state == taskRunning && task.worker == id {
			task.leaseExpiry = now + t.cfg.LeaseDeadline
			t.wal.append(walRecord{Rec: recLease, Seq: j.seq, Phase: task.phase,
				Task: task.index + 1, Worker: id, Attempt: task.attempts}, false)
			t.log.Append(obs.LiveEvent{Event: "lease_regrant", Worker: id,
				Job: j.spec.Name, Seq: j.seq, Phase: task.phase,
				Task: task.index + 1, Attempt: task.attempts})
			return t.taskSpecLocked(j, task), false
		}
	}
	// Placement-aware map selection, replacing the shared-filesystem
	// assumption with real block placement. Three tiers, stall-free:
	//
	//  1. an idle map whose split this worker already caches — served from
	//     memory, zero disk reads;
	//  2. an idle map cached by no live worker — someone must read it from
	//     disk, so this worker might as well (and cache it for later passes);
	//  3. an idle map cached only on OTHER live workers — deferred for one
	//     bounded grace window (HeartbeatTimeout: within it the caching
	//     owner either polls or is declared dead, which clears its ads),
	//     then granted to anyone. The preference costs at most one wait,
	//     never progress.
	var task *trackedTask
	var local bool
	var uncached *trackedTask
	anyIdleMap := false
	for _, m := range j.maps {
		if m.state != taskIdle {
			continue
		}
		anyIdleMap = true
		if _, ok := w.cached[m.split]; ok {
			task = m
			local = true
			break
		}
		if uncached == nil && !t.splitCachedLocked(m.split, id) {
			uncached = m
		}
	}
	if task == nil {
		task = uncached
	}
	if task == nil && anyIdleMap {
		for _, m := range j.maps {
			if m.state != taskIdle {
				continue
			}
			if m.deferUntil == 0 {
				m.deferUntil = now + t.cfg.HeartbeatTimeout
				continue
			}
			if now >= m.deferUntil {
				task = m
				break
			}
		}
	}
	if task == nil && !anyIdleMap && j.mapsDone == len(j.maps) {
		for _, r := range j.reduces {
			if r.state == taskIdle {
				task = r
				break
			}
		}
	}
	if task == nil {
		return nil, false
	}
	task.state = taskRunning
	task.worker = id
	task.attempts++
	task.leaseExpiry = now + t.cfg.LeaseDeadline
	task.deferUntil = 0
	t.wal.append(walRecord{Rec: recLease, Seq: j.seq, Phase: task.phase,
		Task: task.index + 1, Worker: id, Attempt: task.attempts}, false)
	t.m.leaseGrants.Add(1)
	detail := ""
	if local {
		t.m.localGrants.Add(1)
		detail = "cached locally"
	}
	t.log.Append(obs.LiveEvent{Event: "lease_grant", Worker: id, Job: j.spec.Name,
		Seq: j.seq, Phase: task.phase, Task: task.index + 1, Attempt: task.attempts,
		Detail: detail})
	return t.taskSpecLocked(j, task), false
}

// splitCachedLocked reports whether any live worker other than exclude
// advertises the split as cached.
func (t *leaseTable) splitCachedLocked(s Split, exclude int) bool {
	for _, w := range t.workers {
		if w.dead || w.id == exclude {
			continue
		}
		if _, ok := w.cached[s]; ok {
			return true
		}
	}
	return false
}

// taskSpecLocked builds the wire spec for a leased task under the lock.
func (t *leaseTable) taskSpecLocked(j *distJob, task *trackedTask) *TaskSpec {
	spec := &TaskSpec{
		Job: j.spec.Name, Seq: j.seq, Type: j.spec.Type, Params: j.spec.Params,
		Phase: task.phase, Index: task.index, Attempt: task.attempts,
		NumMaps: len(j.maps), NumReducers: len(j.reduces),
	}
	for name := range j.spec.Cache {
		spec.CacheNames = append(spec.CacheNames, name)
	}
	sort.Strings(spec.CacheNames)
	if task.phase == PhaseMap {
		spec.Split = task.split
	} else {
		spec.MapAddrs = make([]string, len(j.maps))
		for i, m := range j.maps {
			spec.MapAddrs[i] = m.addr
		}
	}
	return spec
}

// complete ingests one task-attempt report. Every path is idempotent: a
// zombie worker re-reporting a task the master already completed (or
// already re-ran) is acknowledged and ignored.
func (t *leaseTable) complete(req *CompleteRequest, now time.Duration) (accepted, rejoin bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	w := t.workerLocked(req.WorkerID)
	if w == nil || w.dead {
		// A worker the liveness monitor declared dead cannot vouch for its
		// map outputs (its server may vanish any moment); reject and make
		// it re-register before it does more work.
		return false, true
	}
	j := t.job
	if j == nil || req.Seq != j.seq {
		return true, false // stale completion from an earlier job: drop
	}
	if j.failure != nil {
		return true, false // job already failed or canceled: drop
	}
	var task *trackedTask
	switch req.Phase {
	case PhaseMap:
		if req.Index >= 0 && req.Index < len(j.maps) {
			task = j.maps[req.Index]
		}
	case PhaseReduce:
		if req.Index >= 0 && req.Index < len(j.reduces) {
			task = j.reduces[req.Index]
		}
	}
	if task == nil {
		return false, false
	}
	if task.state == taskDone {
		t.m.duplicates.Add(1)
		t.log.Append(obs.LiveEvent{Event: "duplicate_completion", Worker: req.WorkerID,
			Job: j.spec.Name, Seq: j.seq, Phase: req.Phase, Task: req.Index + 1})
		return true, false
	}
	if !req.OK {
		t.m.taskFailures.Add(1)
		t.log.Append(obs.LiveEvent{Event: "task_failed", Worker: req.WorkerID,
			Job: j.spec.Name, Seq: j.seq, Phase: req.Phase, Task: req.Index + 1,
			Attempt: req.Attempt, Detail: req.Error})
		t.strikeLocked(req.WorkerID, now)
		// FetchFailed protocol: the reducer names the map outputs it could
		// not fetch; invalidate them so they recompute before the reduce
		// is retried.
		for _, mi := range req.FailedMaps {
			if mi < 0 || mi >= len(j.maps) {
				continue
			}
			m := j.maps[mi]
			if m.state != taskDone {
				continue // already being recomputed
			}
			m.state = taskIdle
			m.worker = 0
			m.addr = ""
			j.mapsDone--
			t.wal.append(walRecord{Rec: recMapLost, Seq: j.seq, Phase: PhaseMap,
				Task: mi + 1}, true)
			t.m.fetchFailures.Add(1)
			t.m.mapsRecovered.Add(1)
			t.log.Append(obs.LiveEvent{Event: "map_output_lost", Worker: req.WorkerID,
				Job: j.spec.Name, Seq: j.seq, Phase: PhaseMap, Task: mi + 1,
				Detail: "fetch failed"})
		}
		if task.state == taskRunning && task.worker == req.WorkerID {
			task.state = taskIdle
			task.worker = 0
		}
		t.failJobIfExhaustedLocked(task)
		t.wakeLocked()
		return true, false
	}
	// Success. The reporter may no longer own the lease (it expired, or
	// another worker holds a newer one): first valid result wins, the
	// loser's report lands in the duplicate branch above.
	task.state = taskDone
	task.worker = req.WorkerID
	if req.Phase == PhaseMap {
		task.addr = w.addr
		task.inputRecords = req.InputRecords
		j.mapsDone++
		// Synced before the ack: once the worker hears "accepted" it may be
		// told to discard nothing — but the master must never re-lease work
		// it acknowledged as done across a crash, or a resumed run could
		// fetch the same map output from two generations.
		t.wal.append(walRecord{Rec: recMapDone, Seq: j.seq, Phase: PhaseMap,
			Task: req.Index + 1, Worker: req.WorkerID, Addr: w.addr,
			InputRecords: req.InputRecords}, true)
	} else {
		task.output = req.Output
		j.reducesDone++
		t.wal.append(walRecord{Rec: recReduceDone, Seq: j.seq, Phase: PhaseReduce,
			Task: req.Index + 1, Worker: req.WorkerID, Output: req.Output}, true)
		if j.reducesDone == len(j.reduces) && j.failure == nil {
			close(j.doneCh)
		}
	}
	t.log.Append(obs.LiveEvent{Event: "task_complete", Worker: req.WorkerID,
		Job: j.spec.Name, Seq: j.seq, Phase: req.Phase, Task: req.Index + 1,
		Attempt: req.Attempt})
	t.wakeLocked() // the last map's success opens the reduces
	return true, false
}

// result assembles the finished job's output; an error if it failed.
func (t *leaseTable) result() (*JobOutput, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j := t.job
	if j == nil {
		return nil, fmt.Errorf("dist: no job")
	}
	if j.failure != nil {
		return nil, j.failure
	}
	if j.reducesDone != len(j.reduces) {
		return nil, fmt.Errorf("dist: job %s not finished", j.spec.Name)
	}
	out := &JobOutput{}
	for _, m := range j.maps {
		out.MapInputRecords += m.inputRecords
	}
	for _, r := range j.reduces {
		out.KVs = append(out.KVs, r.output...)
	}
	return out, nil
}

// cacheFile serves a distributed-cache blob of the current job.
func (t *leaseTable) cacheFile(seq int, name string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.job == nil || t.job.seq != seq {
		return nil, false
	}
	data, ok := t.job.spec.Cache[name]
	return data, ok
}

// finishedJob returns the memoized output of a job that completed before
// the last master restart, if the journal recorded one under this name.
func (t *leaseTable) finishedJob(name string) (*JobOutput, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out, ok := t.finished[name]
	return out, ok
}

// memoizeDone journals a job's completion so a later crash replays it as a
// memo. It deliberately does not touch the in-memory memo table: within one
// master lifetime a re-submitted job name re-executes as it always did.
func (t *leaseTable) memoizeDone(name string, out *JobOutput) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wal.append(walRecord{Rec: recJobDone, Job: name, Output: out.KVs,
		MapInputRecords: out.MapInputRecords, DurationNS: int64(out.Duration)}, true)
}

// liveWorkerCount reports workers not declared dead.
func (t *leaseTable) liveWorkerCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, w := range t.workers {
		if !w.dead {
			n++
		}
	}
	return n
}
