package rdd

import (
	"fmt"
	"sync"

	"yafim/internal/obs"
	"yafim/internal/shuffle"
	"yafim/internal/sim"
)

// RDD is an immutable, partitioned, lazily evaluated dataset. Building an
// RDD records lineage only; work happens when an action (Collect or Count)
// runs. RDDs are created from a Context via Parallelize or TextFile and
// derived with the package-level transformation functions (methods cannot
// introduce new type parameters in Go).
type RDD[T any] struct {
	ctx   *Context
	id    int
	name  string
	parts int
	// compute produces partition p, charging led for the work performed.
	compute func(p int, led *sim.Ledger) ([]T, error)
	// deps are the upstream datasets whose shuffle stages must run before
	// this RDD's partitions can be computed.
	deps []preparable
	// prepare runs this RDD's own pre-stage (shuffle map side), if any.
	prepare func() error
	// prefs optionally lists, per partition, the nodes holding its input
	// data (locality preferences). Narrow transformations inherit them.
	prefs [][]int

	cache *cacheState[T]
}

type preparable interface {
	prepareAll() error
	lineageNames() []string
}

// cacheState holds materialised partitions for a cached RDD. Partition p is
// considered resident on virtual node p mod nodes, which is what KillNode
// uses to decide which partitions a node failure destroys.
type cacheState[T any] struct {
	rec   *obs.Recorder // counts evictions; nil-safe
	mu    sync.Mutex
	parts []*[]T // nil entry: not cached
}

func (cs *cacheState[T]) get(p int) ([]T, bool) {
	cs.mu.Lock()
	rows := cs.parts[p]
	cs.mu.Unlock()
	if rows != nil {
		return *rows, true
	}
	return nil, false
}

func (cs *cacheState[T]) put(p int, rows []T) {
	cs.mu.Lock()
	cs.parts[p] = &rows
	cs.mu.Unlock()
}

func (cs *cacheState[T]) evictNode(node, nodes int) {
	cs.mu.Lock()
	var dropped int64
	for p := range cs.parts {
		if p%nodes == node && cs.parts[p] != nil {
			cs.parts[p] = nil
			dropped++
		}
	}
	cs.mu.Unlock()
	cs.rec.AddEvictions(dropped)
}

func (cs *cacheState[T]) evictAll() {
	cs.mu.Lock()
	var dropped int64
	for p := range cs.parts {
		if cs.parts[p] != nil {
			cs.parts[p] = nil
			dropped++
		}
	}
	cs.mu.Unlock()
	cs.rec.AddEvictions(dropped)
}

func newRDD[T any](ctx *Context, name string, parts int, deps []preparable,
	compute func(p int, led *sim.Ledger) ([]T, error)) *RDD[T] {
	if parts <= 0 {
		panic(fmt.Sprintf("rdd: %s: partition count %d must be positive", name, parts))
	}
	return &RDD[T]{ctx: ctx, id: ctx.allocID(), name: name, parts: parts, deps: deps, compute: compute}
}

// Cache marks the RDD so its partitions are kept in executor memory after
// first computation; later jobs reuse them without recomputation or input
// re-reads. It returns r for chaining.
func (r *RDD[T]) Cache() *RDD[T] {
	if r.cache == nil {
		r.cache = &cacheState[T]{rec: r.ctx.rec, parts: make([]*[]T, r.parts)}
		r.ctx.registerCache(r.cache)
	}
	return r
}

// materialize produces partition p, consulting the cache.
func (r *RDD[T]) materialize(p int, led *sim.Ledger) ([]T, error) {
	if p < 0 || p >= r.parts {
		return nil, fmt.Errorf("rdd: %s: partition %d out of range [0,%d)", r.name, p, r.parts)
	}
	if r.cache != nil {
		if rows, ok := r.cache.get(p); ok {
			r.ctx.rec.AddCacheHit()
			return rows, nil
		}
		r.ctx.rec.AddCacheMiss()
	}
	rows, err := r.compute(p, led)
	if err != nil {
		return nil, err
	}
	r.ctx.noteCompute(r.id, p)
	if r.cache != nil {
		r.cache.put(p, rows)
	}
	return rows, nil
}

// lineageNames returns the dataset dependency chain feeding this RDD,
// nearest first: the RDD's own name followed by its ancestors'. It
// annotates StageErrors the way a Spark driver names a failed stage's RDD
// chain.
func (r *RDD[T]) lineageNames() []string {
	names := []string{r.name}
	for _, d := range r.deps {
		names = append(names, d.lineageNames()...)
	}
	return names
}

// prepareAll runs, in lineage order, every pending pre-stage (shuffle map
// side) that this RDD transitively depends on, then its own.
func (r *RDD[T]) prepareAll() error {
	for _, d := range r.deps {
		if err := d.prepareAll(); err != nil {
			return err
		}
	}
	if r.prepare != nil {
		return r.prepare()
	}
	return nil
}

// Parallelize distributes an in-memory slice across parts partitions in
// contiguous chunks, mirroring SparkContext.parallelize.
func Parallelize[T any](ctx *Context, name string, data []T, parts int) *RDD[T] {
	if parts <= 0 {
		parts = ctx.cfg.TotalCores()
	}
	if parts > len(data) && len(data) > 0 {
		parts = len(data)
	}
	if len(data) == 0 {
		parts = 1
	}
	n := len(data)
	return newRDD(ctx, name, parts, nil, func(p int, led *sim.Ledger) ([]T, error) {
		lo := p * n / parts
		hi := (p + 1) * n / parts
		led.AddCPU(float64(hi - lo))
		return data[lo:hi], nil
	})
}

// Map applies f to every element.
func Map[T, U any](r *RDD[T], name string, f func(T) U) *RDD[U] {
	return inherit(r, newRDD(r.ctx, name, r.parts, []preparable{r}, func(p int, led *sim.Ledger) ([]U, error) {
		rows, err := r.materialize(p, led)
		if err != nil {
			return nil, err
		}
		out := make([]U, len(rows))
		for i, v := range rows {
			out[i] = f(v)
		}
		led.AddCPU(float64(len(rows)))
		return out, nil
	}))
}

// FlatMap applies f to every element and concatenates the results.
func FlatMap[T, U any](r *RDD[T], name string, f func(T) []U) *RDD[U] {
	return inherit(r, newRDD(r.ctx, name, r.parts, []preparable{r}, func(p int, led *sim.Ledger) ([]U, error) {
		rows, err := r.materialize(p, led)
		if err != nil {
			return nil, err
		}
		var out []U
		for _, v := range rows {
			out = append(out, f(v)...)
		}
		led.AddCPU(float64(len(rows) + len(out)))
		return out, nil
	}))
}

// Filter keeps the elements for which pred returns true.
func Filter[T any](r *RDD[T], name string, pred func(T) bool) *RDD[T] {
	return inherit(r, newRDD(r.ctx, name, r.parts, []preparable{r}, func(p int, led *sim.Ledger) ([]T, error) {
		rows, err := r.materialize(p, led)
		if err != nil {
			return nil, err
		}
		out := make([]T, 0, len(rows))
		for _, v := range rows {
			if pred(v) {
				out = append(out, v)
			}
		}
		led.AddCPU(float64(len(rows)))
		return out, nil
	}))
}

// MapPartitions transforms each partition wholesale. The callback receives
// the partition index, its rows, and the task's ledger so domain code can
// charge work beyond the engine's default per-element accounting (e.g. one
// op per candidate-itemset check).
func MapPartitions[T, U any](r *RDD[T], name string,
	f func(p int, rows []T, led *sim.Ledger) ([]U, error)) *RDD[U] {
	return inherit(r, newRDD(r.ctx, name, r.parts, []preparable{r}, func(p int, led *sim.Ledger) ([]U, error) {
		rows, err := r.materialize(p, led)
		if err != nil {
			return nil, err
		}
		return f(p, rows, led)
	}))
}

// inherit copies the parent's per-partition locality preferences to a
// narrow child (same partitioning, same underlying data placement).
func inherit[T, U any](parent *RDD[T], child *RDD[U]) *RDD[U] {
	child.prefs = parent.prefs
	return child
}

// runFinal executes the action's final stage over r's partitions and
// returns the materialised partitions. A reduce-side fetch failure (shuffle
// map output destroyed by a node loss after its map stage ran) aborts the
// stage, re-prepares the lineage — which re-runs exactly the missing map
// partitions — and resubmits, the Spark driver's FetchFailed protocol.
func runFinal[T any](r *RDD[T], action string) ([][]T, error) {
	r.ctx.beginJob(fmt.Sprintf("%s(%s)", action, r.name))
	defer r.ctx.endJob()
	for resubmit := 0; ; resubmit++ {
		err := r.prepareAll()
		if err == nil {
			results := make([][]T, r.parts)
			err = r.ctx.runTasks(r.name, r.lineageNames(), r.parts, r.prefs, func(p int, led *sim.Ledger) error {
				rows, err := r.materialize(p, led)
				if err != nil {
					return err
				}
				results[p] = rows
				return nil
			})
			if err == nil {
				return results, nil
			}
		}
		if !isShuffleMissing(err) || resubmit >= maxStageResubmits {
			return nil, err
		}
	}
}

// Collect materialises the RDD and returns all elements in partition order,
// charging the network cost of returning them to the driver.
func Collect[T any](r *RDD[T]) ([]T, error) {
	parts, err := runFinal(r, "collect")
	if err != nil {
		return nil, err
	}
	// One sizing walk up front so the output is allocated exactly once
	// instead of growing append-by-append across partitions.
	var total int
	var bytes int64
	sz := shuffle.NewPricer[T]()
	for _, rows := range parts {
		total += len(rows)
		bytes += sz.Total(rows)
	}
	var out []T
	if total > 0 {
		out = make([]T, 0, total)
		for _, rows := range parts {
			out = append(out, rows...)
		}
	}
	r.ctx.drv.AddOverhead(transferTime(r.ctx.cfg, bytes))
	return out, nil
}

// Count returns the number of elements.
func Count[T any](r *RDD[T]) (int64, error) {
	parts, err := runFinal(r, "count")
	if err != nil {
		return 0, err
	}
	var n int64
	for _, rows := range parts {
		n += int64(len(rows))
	}
	return n, nil
}
