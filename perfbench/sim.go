package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"yafim"
	"yafim/internal/apriori"
	"yafim/internal/hashtree"
	"yafim/internal/itemset"
)

// setupReps is how many times a run sets the program up; setup_s and
// dataset.load_s are medians over them.
const setupReps = 5

// minMines is the fewest mines a timed run makes, however long they take.
const minMines = 3

// mineTimeout bounds one mine; a mine that overruns it counts as failed.
// Three such mines still end a run within about two minutes.
const mineTimeout = 40 * time.Second

// tally collects the mines of a timed run.
type tally struct {
	mines, heaps      []float64
	attempted, failed int
}

// mineOnce times one mine from a clean heap, samples its peak heap and
// checks its result against the oracle. A failed or wrong mine counts
// against fail_frac and adds no sample.
func (t *tally) mineOnce(in *input, mine func() (*yafim.Trace, error)) {
	runtime.GC()
	heap := watchHeap()
	t0 := time.Now()
	tr, err := mine()
	d := time.Since(t0).Seconds()
	peak := heap.Stop()
	t.attempted++
	if err = checkMine(in, tr, err); err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s mine %d: %v\n", in.w.name, t.attempted, err)
		return
	}
	t.mines = append(t.mines, d)
	t.heaps = append(t.heaps, peak)
	fmt.Fprintf(os.Stderr, "perfbench: %s mine %d: %.4f s, peak heap %.1f MiB\n", in.w.name, t.attempted, d, peak)
}

// checkMine folds a mine's error and its agreement with the oracle into one
// verdict.
func checkMine(in *input, tr *yafim.Trace, err error) error {
	if err != nil {
		return err
	}
	if !tr.Result.Equal(in.oracle) {
		return errors.New("result differs from the oracle")
	}
	return nil
}

// outcome reduces the run to its end-to-end metrics. Peak heap is a mean,
// not a median: a mine's peak depends on where its GC cycles fall, and on
// t10-yafim it lands near either 190 or 235 MiB, so a median over a few
// mines flips between the two while the mean moves with their mix.
func (t *tally) outcome(setups []float64) outcome {
	return outcome{
		values: map[string]float64{
			"mine_s":       median(t.mines),
			"setup_s":      median(setups),
			"peak_heap_mb": mean(t.heaps),
		},
		notes: map[string]string{
			"mine_s":       fmt.Sprintf("median of %d mines", len(t.mines)),
			"setup_s":      fmt.Sprintf("median of %d set-ups", len(setups)),
			"peak_heap_mb": fmt.Sprintf("mean of %d mines", len(t.heaps)),
		},
		attempted: t.attempted,
		failed:    t.failed,
	}
}

// loadDB times LoadFile of the workload's input reps times and returns the
// last database loaded with every load time in seconds.
func loadDB(in *input, reps int, sp *tracer, parent int) (*yafim.DB, []float64, error) {
	var db *yafim.DB
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		id := sp.Begin(parent, "dataset.load")
		t0 := time.Now()
		loaded, err := yafim.LoadFile(in.w.name, in.path)
		secs = append(secs, time.Since(t0).Seconds())
		sp.End(id, nil)
		if err != nil {
			return nil, nil, err
		}
		db = loaded
	}
	return db, secs, nil
}

// timedSim sets the simulator up by loading the input file, then mines it
// with the workload's engine in a closed loop.
func timedSim(in *input, budget time.Duration) (outcome, error) {
	db, setups, err := loadDB(in, setupReps, nil, 0)
	if err != nil {
		return outcome{}, err
	}
	opts := yafim.Options{Engine: in.w.engine, Deadline: mineTimeout}
	var t tally
	start := time.Now()
	for t.attempted < minMines || time.Since(start) < budget {
		t.mineOnce(in, func() (*yafim.Trace, error) { return yafim.Mine(db, in.w.support, opts) })
	}
	return t.outcome(setups), nil
}

// tracedSim mines once to warm up, once without and once with a Recorder,
// then replays the layers under the mine on the workload's own levels and
// transactions.
func tracedSim(in *input, sp *tracer) (outcome, error) {
	root := sp.Begin(0, "run")
	defer sp.End(root, nil)
	o := outcome{values: map[string]float64{}, notes: map[string]string{}}

	db, loads, err := loadDB(in, setupReps, sp, root)
	if err != nil {
		return o, err
	}
	if err := datasetLayer(in, loads, &o); err != nil {
		return o, err
	}

	// The first mine of a process runs on a cold heap and is slower; a
	// warm-up mine lets the untraced and the traced mine compare like with
	// like.
	opts := yafim.Options{Engine: in.w.engine, Deadline: mineTimeout}
	id := sp.Begin(root, "mine.warmup")
	warm, err := yafim.Mine(db, in.w.support, opts)
	sp.End(id, nil)
	o.tallyMine(in, warm, err)
	runtime.GC()
	id = sp.Begin(root, "mine.untraced")
	plain, err := yafim.Mine(db, in.w.support, opts)
	plainS := sp.End(id, nil)
	o.tallyMine(in, plain, err)

	rec := yafim.NewRecorder()
	opts.Recorder = rec
	runtime.GC()
	id = sp.Begin(root, "mine.traced")
	tr, err := yafim.Mine(db, in.w.support, opts)
	c := rec.Counters()
	tracedS := sp.End(id, map[string]int64{
		"shuffle_bytes": c.ShuffleBytes, "broadcast_bytes": c.BroadcastBytes,
		"cache_hits": c.CacheHits, "cache_misses": c.CacheMisses, "task_retries": c.TaskRetries,
	})
	o.tallyMine(in, tr, err)
	if o.failed > 0 {
		return o, nil
	}
	o.values["obs.trace_overhead_frac"] = tracedS/plainS - 1
	o.values["rdd.shuffle_bytes"] = float64(c.ShuffleBytes)
	o.values["rdd.broadcast_bytes"] = float64(c.BroadcastBytes)
	o.values["rdd.cache_hit_ratio"] = ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses))
	o.notes["rdd.cache_hit_ratio"] = fmt.Sprintf("%d hits of %d lookups", c.CacheHits, c.CacheHits+c.CacheMisses)
	o.values["rdd.task_retries"] = float64(c.TaskRetries)
	o.values["sim.virt_s"] = tr.TotalDuration().Seconds()
	if tr.TotalDuration() != plain.TotalDuration() {
		o.broken = fmt.Sprintf("sim.virt_s is %v traced but %v untraced",
			tr.TotalDuration(), plain.TotalDuration())
	}

	if err := replayLevels(in, db, in.w.engine == yafim.EngineYAFIM, sp, root, &o); err != nil {
		return o, err
	}
	if in.w.engine == yafim.EngineRDDEclat {
		replayBitsets(in, db, rec, sp, root, &o)
	}
	return o, nil
}

// tallyMine counts one traced-run mine and its verdict.
func (o *outcome) tallyMine(in *input, tr *yafim.Trace, err error) {
	o.attempted++
	if err = checkMine(in, tr, err); err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s traced-run mine %d: %v\n", in.w.name, o.attempted, err)
	}
}

// datasetLayer reports the input-loading layer from the run's load times.
func datasetLayer(in *input, loads []float64, o *outcome) error {
	st, err := os.Stat(in.path)
	if err != nil {
		return err
	}
	o.values["dataset.load_s"] = median(loads)
	o.notes["dataset.load_s"] = fmt.Sprintf("median of %d LoadFile calls", len(loads))
	o.values["dataset.input_bytes"] = float64(st.Size())
	return nil
}

// replayLevels replays candidate generation, and with trees set hash-tree
// build and counting, pass by pass on the oracle's levels and the workload's
// transactions: C(k+1) = Gen(L(k)) for every level, which are the candidate
// sets YAFIM and MRApriori count. The replayed counts must select exactly
// the next level.
func replayLevels(in *input, db *yafim.DB, trees bool, sp *tracer, parent int, o *outcome) error {
	levels := in.oracle.Levels
	minCount := in.oracle.MinSupport
	var genS, buildS, countS float64
	var cands, ops int64
	for i, lv := range levels {
		k := lv.K + 1
		prev := make([]itemset.Itemset, len(lv.Sets))
		for j, sc := range lv.Sets {
			prev[j] = sc.Set
		}
		id := sp.Begin(parent, fmt.Sprintf("apriori.gen k=%d", k))
		ck, err := apriori.Gen(prev)
		genS += sp.End(id, map[string]int64{"candidates": int64(len(ck))})
		if err != nil {
			return fmt.Errorf("replaying Gen for k=%d: %w", k, err)
		}
		cands += int64(len(ck))
		if !trees || len(ck) == 0 {
			continue
		}
		id = sp.Begin(parent, fmt.Sprintf("hashtree.build k=%d", k))
		tree := hashtree.Build(ck)
		buildS += sp.End(id, map[string]int64{"candidates": int64(tree.Len())})
		id = sp.Begin(parent, fmt.Sprintf("hashtree.count k=%d", k))
		counts, n := tree.CountSupports(db.Transactions)
		countS += sp.End(id, map[string]int64{"subset_ops": n})
		ops += n
		frequent, want := 0, 0
		for _, c := range counts {
			if c >= minCount {
				frequent++
			}
		}
		if i+1 < len(levels) {
			want = len(levels[i+1].Sets)
		}
		if frequent != want && o.broken == "" {
			o.broken = fmt.Sprintf("hash-tree replay finds %d frequent %d-itemsets, the oracle %d",
				frequent, k, want)
		}
	}
	o.values["apriori.gen_s"] = genS
	o.values["apriori.candidates"] = float64(cands)
	o.notes["apriori.candidates"] = "sum of |C(k)| for k >= 2"
	o.values["apriori.frequent"] = float64(in.oracle.NumFrequent())
	o.values["hashtree.build_s"] = buildS
	o.values["hashtree.count_s"] = countS
	o.values["hashtree.subset_ops"] = float64(ops)
	return nil
}

// andStages are RDD-Eclat's intersection stages. Their metered CPU ops are
// one per 64-bit word ANDed and counted, plus the engine's one per task
// input record (one per equivalence class, a few hundred in all).
var andStages = map[string]bool{"intersectC2": true, "mineClasses": true}

// pricingWindow is how long the AND+popcount kernel is timed to price one
// word.
const pricingWindow = 200 * time.Millisecond

// bitsetSink keeps the priced kernel's result observable.
var bitsetSink int

// replayBitsets reads RDD-Eclat's intersection work from the Recorder's
// stage totals and prices it with Bitset.AndCountInto timed over every pair
// of the workload's frequent-item bitsets.
func replayBitsets(in *input, db *yafim.DB, rec *yafim.Recorder, sp *tracer, parent int, o *outcome) {
	var words float64
	seen := map[string]bool{}
	for _, job := range rec.Jobs() {
		for _, st := range job.Stages {
			if andStages[st.Name] {
				words += st.Total.CPUOps
				seen[st.Name] = true
			}
		}
	}
	if len(seen) != len(andStages) && o.broken == "" {
		o.broken = fmt.Sprintf("the Recorder holds %d of RDD-Eclat's %d intersection stages", len(seen), len(andStages))
	}
	v := db.Vertical()
	var bits []*itemset.Bitset
	for _, sc := range in.oracle.Levels[0].Sets {
		bits = append(bits, v.Items[sc.Set[0]])
	}
	dst := itemset.NewBitset(db.Len())
	id := sp.Begin(parent, "itemset.andcount")
	var calls int64
	t0 := time.Now()
	for time.Since(t0) < pricingWindow {
		for i := range bits {
			for j := i + 1; j < len(bits); j++ {
				bitsetSink += dst.AndCountInto(bits[i], bits[j])
				calls++
			}
		}
	}
	el := sp.End(id, map[string]int64{"calls": calls})
	priced := float64(calls) * float64(dst.Words())
	o.values["itemset.and_words"] = words
	o.values["itemset.andcount_s"] = words * ratio(el, priced)
	o.notes["itemset.andcount_s"] = fmt.Sprintf("%.3g ns/word over %d calls", 1e9*ratio(el, priced), calls)
}
