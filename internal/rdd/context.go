// Package rdd implements a Spark-like in-memory parallel execution engine:
// resilient distributed datasets with lazy, lineage-tracked transformations,
// stage-based job execution on a goroutine worker pool, partition caching,
// broadcast variables and lineage-based recovery from injected task and node
// failures.
//
// Results are computed for real and exactly; time is virtual. Every task
// meters its work into a sim.Ledger and the context converts each stage's
// task costs into a deterministic makespan for the configured cluster, so a
// driver program can be "run on 12 nodes" reproducibly on any machine.
package rdd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/dfs"
	"yafim/internal/exec"
	"yafim/internal/obs"
	"yafim/internal/sim"
)

// Context owns the cluster configuration, the worker pool, fault-injection
// state and the virtual-time job reports of one driver program. Drivers run
// actions sequentially, as a Spark driver thread does; a Context must not
// run two actions concurrently.
type Context struct {
	cfg         cluster.Config
	parallelism int

	// goCtx carries the driver's cancellation signal (context cancel,
	// deadline, SIGINT). Workers check it cooperatively at task boundaries;
	// the default Background context never cancels.
	goCtx context.Context

	mu              sync.Mutex
	nextID          int
	started         bool // first job pays application startup
	pendingOverhead time.Duration
	current         *sim.JobReport
	reports         []sim.JobReport
	failures        map[failureKey]int
	caches          []evictor
	naiveShipping   bool  // disable broadcast variables (ablation)
	jobShipBytes    int64 // naive-mode bytes serialized through the driver

	cacheMgr *cacheManager // per-node executor memory accounting

	// Shuffle lifecycle: every shuffle operator registers its state here so
	// the context can invalidate it on error, drop a dead node's slices, and
	// reclaim it at pass boundaries. shuffleUsed tracks resident map-output
	// spill per node next to the cache manager's budget; shuffleSpilled and
	// shufflePeak record the run's cumulative and high-water spill volume.
	shuffles       []*shuffleCore
	shuffleUsed    []int64
	shuffleTotal   int64
	shufflePeak    int64
	shuffleSpilled int64

	// Chaos engineering: the seed-driven fault plan, the mitigation
	// configuration, per-node failure bookkeeping, whether the planned crash
	// has fired, and the filesystems that crash along with a node.
	chaosPlan *chaos.Plan
	resil     chaos.Resilience
	resilSet  bool
	health    *chaos.NodeHealth
	crashDone bool
	fss       []*dfs.FileSystem

	// rec receives telemetry spans and counters; nil disables recording.
	// computed tracks which (rdd, partition) pairs have been materialised
	// before, so repeated computations surface as lineage recomputes; it is
	// only maintained while a recorder is attached.
	rec      *obs.Recorder
	computed map[failureKey]bool
}

type failureKey struct {
	rdd  int
	part int
}

type evictor interface {
	evictNode(node, nodes int)
	evictAll()
}

// Option configures a Context.
type Option func(*Context)

// WithParallelism caps the number of OS-level worker goroutines used to
// execute tasks. It affects real execution speed only, never virtual time.
func WithParallelism(n int) Option {
	return func(c *Context) {
		if n > 0 {
			c.parallelism = n
		}
	}
}

// WithoutBroadcast disables the broadcast-variable optimisation: shared data
// is shipped with every task, the naive default behaviour the paper's §IV-C
// argues against. Used by the broadcast ablation experiment.
func WithoutBroadcast() Option {
	return func(c *Context) { c.naiveShipping = true }
}

// WithContext attaches a Go context to the driver: its cancellation or
// deadline aborts job execution cooperatively at the next task boundary,
// returning an error matching exec.ErrCanceled or exec.ErrDeadlineExceeded.
// Partitions already computed stay computed; no goroutines outlive the
// aborted action. The default is context.Background(), which never cancels.
func WithContext(ctx context.Context) Option {
	return func(c *Context) {
		if ctx != nil {
			c.goCtx = ctx
		}
	}
}

// WithRecorder attaches a telemetry recorder: every job, stage and task the
// context runs is recorded as a span on the virtual timeline, and the
// engine's cache, broadcast, shuffle and retry activity is counted. A nil
// recorder (the default) disables telemetry at zero overhead.
func WithRecorder(rec *obs.Recorder) Option {
	return func(c *Context) { c.rec = rec }
}

// WithExecutorMemory caps the cache memory available per node (the paper's
// testbed has 24 GB per node). Cached partitions beyond the budget evict
// the least recently used residents of their node; evicted partitions are
// transparently recomputed from lineage. Zero (the default) is unlimited.
func WithExecutorMemory(bytesPerNode int64) Option {
	return func(c *Context) {
		if bytesPerNode > 0 {
			c.cacheMgr = newCacheManager(c.cfg.Nodes, bytesPerNode)
		}
	}
}

// NewContext creates a driver context for the given simulated cluster.
func NewContext(cfg cluster.Config, opts ...Option) (*Context, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Context{
		cfg:         cfg,
		parallelism: runtime.GOMAXPROCS(0),
		goCtx:       context.Background(),
		failures:    make(map[failureKey]int),
		shuffleUsed: make([]int64, cfg.Nodes),
	}
	for _, o := range opts {
		o(c)
	}
	if c.chaosPlan != nil {
		if err := c.chaosPlan.Validate(); err != nil {
			return nil, err
		}
		c.health = chaos.NewNodeHealth(cfg.Nodes, c.resil)
	}
	return c, nil
}

// Config returns the simulated cluster configuration.
func (c *Context) Config() cluster.Config { return c.cfg }

// Recorder returns the attached telemetry recorder (nil when disabled).
func (c *Context) Recorder() *obs.Recorder { return c.rec }

// Ctx returns the driver's Go context (never nil).
func (c *Context) Ctx() context.Context { return c.goCtx }

// Err reports the driver's cancellation state: nil while the run may
// continue, otherwise a sentinel-wrapped cancellation or deadline error.
// Long partition computations call it periodically so a runaway pass (e.g.
// an Apriori candidate explosion) stops within one task boundary.
func (c *Context) Err() error { return exec.ContextErr(c.goCtx) }

// noteCompute marks one partition computation and reports whether it
// repeats work already done earlier in the run — a lineage recomputation
// caused by a missing, never-enabled or evicted cache entry. Tracking only
// runs with a recorder attached.
func (c *Context) noteCompute(rddID, part int) {
	if c.rec == nil {
		return
	}
	k := failureKey{rddID, part}
	c.mu.Lock()
	if c.computed == nil {
		c.computed = make(map[failureKey]bool)
	}
	again := c.computed[k]
	c.computed[k] = true
	c.mu.Unlock()
	if again {
		c.rec.AddRecomputes(1)
	}
}

// Reports returns the job reports of every action run so far, in order.
func (c *Context) Reports() []sim.JobReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]sim.JobReport, len(c.reports))
	copy(out, c.reports)
	return out
}

// NumJobs returns how many actions have run so far: a mark for
// DurationSince, which is how the drivers attribute job time to a pass.
func (c *Context) NumJobs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.reports)
}

// DurationSince sums the virtual durations of the jobs run after the first
// mark ones.
func (c *Context) DurationSince(mark int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var d time.Duration
	for _, r := range c.reports[mark:] {
		d += r.Duration()
	}
	return d
}

// TotalDuration sums the virtual durations of all jobs run so far.
func (c *Context) TotalDuration() time.Duration { return c.DurationSince(0) }

func (c *Context) allocID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

// addPendingOverhead schedules driver-side virtual time (e.g. broadcast
// distribution) to be charged to the next job.
func (c *Context) addPendingOverhead(d time.Duration) {
	c.mu.Lock()
	c.pendingOverhead += d
	c.mu.Unlock()
}

func (c *Context) registerCache(e evictor) {
	c.mu.Lock()
	c.caches = append(c.caches, e)
	c.mu.Unlock()
}

func (c *Context) registerShuffle(st *shuffleCore) {
	c.mu.Lock()
	c.shuffles = append(c.shuffles, st)
	c.mu.Unlock()
}

// shuffleAccount charges (or, with negative n, releases) resident shuffle
// spill produced by the given map task against its node, maintaining the
// total, cumulative and peak volumes and mirroring the delta into the
// telemetry gauge. Called by shuffleCore with its own lock held; the core
// never calls back while c.mu is held, so the order is always core -> ctx.
func (c *Context) shuffleAccount(mapTask int, n int64) {
	c.mu.Lock()
	c.shuffleUsed[mapTask%len(c.shuffleUsed)] += n
	c.shuffleTotal += n
	if n > 0 {
		c.shuffleSpilled += n
	}
	if c.shuffleTotal > c.shufflePeak {
		c.shufflePeak = c.shuffleTotal
	}
	c.mu.Unlock()
	c.rec.AddShuffleResident(n)
}

// ShuffleResidentBytes reports the map-output spill currently retained
// across all nodes. After Close it is always zero.
func (c *Context) ShuffleResidentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shuffleTotal
}

// ShufflePeakBytes reports the high-water mark of resident shuffle spill —
// with pass-boundary reclamation this is roughly one pass's shuffle volume,
// without it the sum of every pass's.
func (c *Context) ShufflePeakBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shufflePeak
}

// ShuffleSpilledBytes reports the cumulative shuffle spill written over the
// context's lifetime, reclaimed or not. Peak versus cumulative is the
// measure of how much the lifecycle manager's reclamation saves.
func (c *Context) ShuffleSpilledBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shuffleSpilled
}

// shuffleNodeBytes reports one node's resident shuffle spill (for tests).
func (c *Context) shuffleNodeBytes(node int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shuffleUsed[node]
}

// SetContext replaces the driver's Go context for subsequent actions. A
// long-running driver — one Context serving many queries — attaches each
// request's cancellation or deadline here; after a canceled or timed-out
// action, attach a fresh context and re-run the lineage: invalidated
// shuffle state re-executes instead of replaying the stale error. Must not
// be called while an action is running (actions are sequential anyway).
func (c *Context) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.goCtx = ctx
}

// FreeShuffles reclaims every registered shuffle's resident map output.
// The YAFIM driver calls it at each pass boundary so pass k's shuffle
// spill is released before pass k+1 starts; lineage stays valid, so an RDD
// whose shuffle was freed simply re-runs its map stage on the next action.
func (c *Context) FreeShuffles() {
	c.mu.Lock()
	shuffles := append([]*shuffleCore(nil), c.shuffles...)
	c.mu.Unlock()
	for _, st := range shuffles {
		st.free()
	}
}

// Close releases everything the context retains on behalf of the cluster:
// every shuffle's resident map output and every cached partition. Reports
// and telemetry stay readable; the context itself remains usable (a later
// action recomputes from lineage), so Close is idempotent and safe to
// defer. It always returns nil and exists to satisfy io.Closer.
func (c *Context) Close() error {
	c.FreeShuffles()
	c.DropAllCaches()
	return nil
}

// FailTaskOnce injects n transient failures into the given partition of the
// given RDD: its next n materialisations return an error, exercising the
// scheduler's task retry path. Negative partition indices or failure counts
// are injector bugs — the failures would silently never fire — so they
// panic.
func (c *Context) FailTaskOnce(rddID, part, n int) {
	if part < 0 {
		panic(fmt.Sprintf("rdd: FailTaskOnce: negative partition index %d", part))
	}
	if n < 0 {
		panic(fmt.Sprintf("rdd: FailTaskOnce: negative failure count %d", n))
	}
	c.mu.Lock()
	c.failures[failureKey{rddID, part}] += n
	c.mu.Unlock()
}

func (c *Context) shouldFail(rddID, part int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := failureKey{rddID, part}
	if c.failures[k] > 0 {
		c.failures[k]--
		return true
	}
	return false
}

// KillNode simulates losing worker node n: every cached partition and every
// shuffle map-output slice resident on that node is dropped, matching
// dfs.KillNode's loss of the node's block replicas. Subsequent actions
// transparently recompute the lost cache partitions from lineage, and the
// next action over an affected shuffle re-runs exactly the missing map
// partitions, which is the RDD fault-tolerance story.
func (c *Context) KillNode(n int) {
	c.mu.Lock()
	caches := append([]evictor(nil), c.caches...)
	shuffles := append([]*shuffleCore(nil), c.shuffles...)
	nodes := c.cfg.Nodes
	c.mu.Unlock()
	for _, e := range caches {
		e.evictNode(n, nodes)
	}
	for _, st := range shuffles {
		st.dropNode(n, nodes)
	}
	c.health.MarkDead(n)
}

// DropAllCaches evicts every cached partition, as if all executors were
// restarted. Used by the cache ablation to force recomputation.
func (c *Context) DropAllCaches() {
	c.mu.Lock()
	caches := append([]evictor(nil), c.caches...)
	c.mu.Unlock()
	for _, e := range caches {
		e.evictAll()
	}
}

// FlakyError is the failure injected by FailTaskOnce. The stage scheduler
// retries tasks that fail with any error; tests use this type to assert the
// retry happened for the injected reason.
type FlakyError struct {
	RDD  int
	Part int
}

func (e *FlakyError) Error() string {
	return fmt.Sprintf("rdd: injected failure in rdd %d partition %d", e.RDD, e.Part)
}

// maxTaskAttempts mirrors Hadoop/Spark's default of four attempts per task.
const maxTaskAttempts = 4

// beginJob opens a job report. The first job of the application additionally
// pays the cluster's job (application) startup cost.
func (c *Context) beginJob(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current != nil {
		panic("rdd: nested or concurrent actions on one Context")
	}
	overhead := c.pendingOverhead
	c.pendingOverhead = 0
	if !c.started {
		c.started = true
		overhead += c.cfg.JobStartup
	}
	c.current = &sim.JobReport{Name: name, Overhead: overhead}
	c.rec.BeginJob("rdd", name)
}

func (c *Context) endJob() sim.JobReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Without broadcast variables, every task's shared data is serialized
	// through the driver's single uplink — the master-bandwidth bottleneck
	// §IV-C describes — so the shipped volume is charged serially.
	c.current.Overhead += transferTime(c.cfg, c.jobShipBytes)
	c.jobShipBytes = 0
	rep := *c.current
	c.current = nil
	c.reports = append(c.reports, rep)
	c.rec.EndJob(rep.Overhead)
	return rep
}

// addShipBytes records naive-mode data shipped with a task of the current
// job.
func (c *Context) addShipBytes(n int64) {
	c.mu.Lock()
	c.jobShipBytes += n
	c.mu.Unlock()
}

func (c *Context) addStage(rep sim.StageReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current == nil {
		panic("rdd: stage executed outside any job")
	}
	c.current.Stages = append(c.current.Stages, rep)
}

// runTasks executes one stage: numTasks tasks on the worker pool, with
// per-task cost metering, failure retry, panic isolation, cooperative
// cancellation, and a deterministic makespan. The work callback is invoked
// with the task index and that task's ledger; prefs (optional, per task)
// lists the nodes holding the task's input for locality-aware scheduling.
// lineage names the dataset chain feeding the stage (nearest first) and
// annotates any StageError the stage dies with.
//
// A panic in the work closure is recovered into a typed *exec.TaskError and
// retried like any transient fault; a deterministic panic exhausts the
// attempt limit and fails the stage. A canceled context aborts each task at
// its next attempt boundary without retrying.
func (c *Context) runTasks(name string, lineage []string, numTasks int, prefs [][]int, work func(p int, led *sim.Ledger) error) error {
	if err := c.Err(); err != nil {
		c.rec.AddCancellations(1)
		return &exec.StageError{Engine: "rdd", Stage: name, Lineage: lineage, Err: err}
	}
	c.maybeCrash()

	costs := make([]sim.Cost, numTasks)
	wasted := make([]sim.Cost, numTasks) // cost burned by failed attempts
	attempts := make([]int, numTasks)
	errs := make([]error, numTasks)
	var panics int64

	sem := make(chan struct{}, c.parallelism)
	var wg sync.WaitGroup
	for p := 0; p < numTasks; p++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(p int) {
			defer wg.Done()
			defer func() { <-sem }()
			var lastErr error
			for attempt := 1; attempt <= maxTaskAttempts; attempt++ {
				if err := c.Err(); err != nil {
					errs[p] = err
					return
				}
				led := &sim.Ledger{}
				lastErr = exec.Guard("rdd", name, p, attempt, func() error { return work(p, led) })
				attempts[p] = attempt
				var te *exec.TaskError
				if errors.As(lastErr, &te) && te.Panicked() {
					atomic.AddInt64(&panics, 1)
				}
				// A chaos-injected failure strikes after the work ran — the
				// executor dies before reporting success — so the attempt's
				// full cost is wasted. Never injected on the last permitted
				// attempt: the plan degrades jobs, it cannot fail them.
				if lastErr == nil && attempt < maxTaskAttempts &&
					c.chaosPlan.TaskFails(name, p, attempt) {
					lastErr = &chaos.InjectedError{Stage: name, Task: p, Attempt: attempt}
				}
				if lastErr == nil {
					costs[p] = led.Total()
					return
				}
				if exec.IsCancellation(lastErr) {
					// The closure observed the cancellation itself; stop
					// without retrying — retries only delay the shutdown.
					errs[p] = lastErr
					return
				}
				var miss *shuffleMissingError
				if errors.As(lastErr, &miss) {
					// A fetch failure: the map output this task needs is gone
					// and no retry can regenerate it. Fail the stage fast so
					// the driver can recover the missing map partitions from
					// lineage and resubmit.
					errs[p] = lastErr
					return
				}
				// A failed attempt still occupied its core: its partial work
				// is charged to the task so injected failures are visible in
				// virtual time, and surfaced as wasted cost.
				wasted[p] = wasted[p].Add(led.Total())
			}
			errs[p] = fmt.Errorf("task %d failed after %d attempts: %w",
				p, maxTaskAttempts, lastErr)
		}(p)
	}
	wg.Wait()

	c.rec.AddTaskPanics(panics)
	if err := errors.Join(errs...); err != nil {
		// One representative cancellation instead of the join: every aborted
		// task carries the same context error, and Join would print it once
		// per task.
		if cause := exec.CollapseCancellation(errs); cause != nil {
			c.rec.AddCancellations(1)
			return &exec.StageError{Engine: "rdd", Stage: name, Lineage: lineage, Err: cause}
		}
		return &exec.StageError{Engine: "rdd", Stage: name, Attempts: maxTaskAttempts,
			Lineage: lineage, Err: err}
	}
	c.noteFailures(name, attempts)
	placed := make([]sim.Placed, numTasks)
	for i, cost := range costs {
		// Retried tasks run their attempts back to back on one core, so the
		// scheduled cost is the successful attempt plus everything wasted,
		// and each retry re-dispatches the task (cheap on resident Spark
		// executors, expensive on per-task MapReduce JVMs).
		placed[i] = sim.Placed{Cost: cost.Add(wasted[i]), Relaunches: attempts[i] - 1}
		if i < len(prefs) {
			placed[i].Pref = prefs[i]
		}
	}
	rep, placements, spec := sim.RunStageResilient(c.cfg, name, placed, c.stageOpts())
	c.addStage(rep)
	c.recordStage(rep, placed, placements, wasted, attempts)
	c.rec.AddSpeculation(spec.Launched, spec.Won)
	return nil
}

// recordStage converts one executed stage's schedule into telemetry: a
// stage span with per-task spans, retry/wasted-cost counters and
// locality-placement counters.
func (c *Context) recordStage(rep sim.StageReport, placed []sim.Placed,
	placements []sim.TaskPlacement, wasted []sim.Cost, attempts []int) {
	if c.rec == nil {
		return
	}
	costs := make([]sim.Cost, len(placed))
	for i := range placed {
		costs[i] = placed[i].Cost
	}
	span := obs.SpanFromSchedule(rep, c.cfg.StageOverhead, placements, costs, attempts)
	var retries, local, remote int64
	var totalWasted sim.Cost
	for i := range placements {
		if attempts[i] > 1 {
			retries += int64(attempts[i] - 1)
			totalWasted = totalWasted.Add(wasted[i])
		}
		if len(placed[i].Pref) > 0 {
			if placements[i].Remote {
				remote++
			} else {
				local++
			}
		}
	}
	c.rec.AddStage(span)
	if retries > 0 {
		c.rec.AddRetries(retries, totalWasted)
	}
	if local > 0 || remote > 0 {
		c.rec.AddLocality(local, remote)
	}
}
