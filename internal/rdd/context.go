// Package rdd implements a Spark-like in-memory parallel execution engine:
// resilient distributed datasets with lazy, lineage-tracked transformations,
// stage-based job execution on a goroutine worker pool, partition caching,
// broadcast variables and lineage-based recovery from injected task and node
// failures.
//
// Results are computed for real and exactly; time is virtual. Every task
// meters its work into a sim.Ledger and the context's virtual cluster
// (internal/vcluster, shared with the MapReduce engine) converts each
// stage's task costs into a deterministic makespan for the configured
// cluster, so a driver program can be "run on 12 nodes" reproducibly on any
// machine.
package rdd

import (
	"context"
	"sync"
	"time"

	"yafim/internal/cluster"
	"yafim/internal/exec"
	"yafim/internal/obs"
	"yafim/internal/sim"
	"yafim/internal/vcluster"
)

// Context owns the cluster configuration, the caches, shuffles and
// broadcast state of one driver program, and the virtual cluster that runs
// its stages and keeps its job reports. Drivers run actions sequentially,
// as a Spark driver thread does; a Context must not run two actions
// concurrently.
type Context struct {
	cfg cluster.Config
	drv *vcluster.Driver

	// goCtx carries the driver's cancellation signal (context cancel,
	// deadline, SIGINT). Workers check it cooperatively at task boundaries;
	// the default Background context never cancels.
	goCtx context.Context

	mu            sync.Mutex
	nextID        int
	caches        []evictor
	naiveShipping bool  // disable broadcast variables (ablation)
	jobShipBytes  int64 // naive-mode bytes serialized through the driver

	// Shuffle lifecycle: every shuffle registers its state here so the
	// context can invalidate it on error, drop a dead node's slices, and
	// reclaim it at pass boundaries. shuffleUsed tracks resident map-output
	// spill per node; shufflePeak records the run's high-water spill volume.
	shuffles     []*shuffleCore
	shuffleUsed  []int64
	shuffleTotal int64
	shufflePeak  int64

	// rec receives telemetry spans and counters; nil disables recording.
	// computed tracks which (rdd, partition) pairs have been materialised
	// before, so repeated computations surface as lineage recomputes; it is
	// only maintained while a recorder is attached.
	rec      *obs.Recorder
	computed map[partKey]bool
}

// partKey names one partition of one RDD.
type partKey struct {
	rdd  int
	part int
}

type evictor interface {
	evictNode(node, nodes int)
	evictAll()
}

// Option configures a Context.
type Option func(*Context)

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

// NewContext creates a driver context for the given simulated cluster.
func NewContext(cfg cluster.Config, opts ...Option) (*Context, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Context{
		cfg:         cfg,
		goCtx:       context.Background(),
		shuffleUsed: make([]int64, cfg.Nodes),
	}
	// A node crash loses the node's cached partitions and shuffle output.
	c.drv = vcluster.New(cfg, "rdd", c.KillNode)
	for _, o := range opts {
		o(c)
	}
	if err := c.drv.ChaosPlan().Validate(); err != nil {
		return nil, err
	}
	c.drv.SetRecorder(c.rec)
	return c, nil
}

// Config returns the simulated cluster configuration.
func (c *Context) Config() cluster.Config { return c.cfg }

// Recorder returns the attached telemetry recorder (nil when disabled).
func (c *Context) Recorder() *obs.Recorder { return c.rec }

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
	k := partKey{rddID, part}
	c.mu.Lock()
	if c.computed == nil {
		c.computed = make(map[partKey]bool)
	}
	again := c.computed[k]
	c.computed[k] = true
	c.mu.Unlock()
	if again {
		c.rec.Add(obs.Counters{LineageRecomputes: 1})
	}
}

// Reports returns the job reports of every action run so far, in order.
func (c *Context) Reports() []sim.JobReport { return c.drv.Reports() }

// NumJobs returns how many actions have run so far: a mark for
// DurationSince, which is how the drivers attribute job time to a pass.
func (c *Context) NumJobs() int { return c.drv.NumJobs() }

// DurationSince sums the virtual durations of the jobs run after the first
// mark ones.
func (c *Context) DurationSince(mark int) time.Duration { return c.drv.DurationSince(mark) }

// TotalDuration sums the virtual durations of all jobs run so far.
func (c *Context) TotalDuration() time.Duration { return c.drv.TotalDuration() }

func (c *Context) allocID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
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
// total and peak volumes and mirroring the delta into the telemetry gauge.
// Called by shuffleCore with its own lock held; the core never calls back
// while c.mu is held, so the order is always core -> ctx.
func (c *Context) shuffleAccount(mapTask int, n int64) {
	c.mu.Lock()
	c.shuffleUsed[mapTask%len(c.shuffleUsed)] += n
	c.shuffleTotal += n
	if c.shuffleTotal > c.shufflePeak {
		c.shufflePeak = c.shuffleTotal
	}
	c.mu.Unlock()
	c.rec.Add(obs.Counters{ShuffleResidentBytes: n})
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
	c.drv.MarkDead(n)
}

// beginJob opens a job report. The first job of the application additionally
// pays the cluster's job (application) startup cost; the executors then stay
// resident for every later job.
func (c *Context) beginJob(name string) {
	var startup time.Duration
	if c.drv.NumJobs() == 0 {
		startup = c.cfg.JobStartup
	}
	c.drv.BeginJob(name, startup)
}

func (c *Context) endJob() {
	// Without broadcast variables, every task's shared data is serialized
	// through the driver's single uplink — the master-bandwidth bottleneck
	// §IV-C describes — so the shipped volume is charged serially.
	c.mu.Lock()
	ship := c.jobShipBytes
	c.jobShipBytes = 0
	c.mu.Unlock()
	c.drv.AddOverhead(transferTime(c.cfg, ship))
	c.drv.EndJob()
}

// addShipBytes records naive-mode data shipped with a task of the current
// job.
func (c *Context) addShipBytes(n int64) {
	c.mu.Lock()
	c.jobShipBytes += n
	c.mu.Unlock()
}

// runTasks executes one stage of numTasks tasks on the virtual cluster. The
// work callback is invoked with the task index and that task's ledger; prefs
// (optional, per task) lists the nodes holding the task's input for
// locality-aware scheduling. lineage names the dataset chain feeding the
// stage (nearest first) and annotates any StageError the stage dies with. A
// task that finds its shuffle input missing is not retried: the stage fails
// fast so the action can recover the map output from lineage and resubmit.
func (c *Context) runTasks(name string, lineage []string, numTasks int, prefs [][]int, work func(p int, led *sim.Ledger) error) error {
	_, _, err := c.drv.RunStage(c.goCtx, vcluster.Stage{
		Name: name, Tasks: numTasks, Prefs: prefs, Lineage: lineage, NoRetry: isShuffleMissing,
	}, work)
	return err
}
