package mrapriori

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"yafim/internal/dist"
	"yafim/internal/hashtree"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/sim"
)

// Registered job-type names. Both the driver and the worker processes link
// this package, so the same closures resolve on both sides of the wire and
// in the simulator (dist.Local).
const (
	// JobTypeItems is the pass-1 single-item counting job.
	JobTypeItems = "apriori-items"
	// JobTypeCount is the exact candidate-counting job (see CountSpec).
	JobTypeCount = "apriori-count"
)

// countParams is JobTypeCount's wire parameter blob.
type countParams struct {
	// CachePath is the distributed-cache name holding the candidate file.
	CachePath string `json:"cache_path"`
	// MinCount is the absolute support threshold for reduce-side pruning.
	MinCount int `json:"min_count"`
}

func decodeCountParams(p []byte) (countParams, error) {
	var cp countParams
	if err := json.Unmarshal(p, &cp); err != nil {
		return cp, fmt.Errorf("mrapriori: count params: %w", err)
	}
	if cp.CachePath == "" {
		return cp, fmt.Errorf("mrapriori: count params: empty cache path")
	}
	return cp, nil
}

func init() {
	dist.RegisterJobType(JobTypeItems, func([]byte, mapreduce.CacheFiles) (mapreduce.Tasks, error) {
		return mapreduce.Tasks{
			NewMapper:   func() mapreduce.Mapper { return itemMapper{} },
			NewCombiner: func() mapreduce.Reducer { return sumReducer{} },
			NewReducer:  func() mapreduce.Reducer { return sumReducer{} },
		}, nil
	})
	dist.RegisterJobType(JobTypeCount, newCountJob)
}

// itemMapper implements pass 1 (Algorithm 2 of the paper, in MapReduce
// form): emit <item, 1> for every item of every transaction.
type itemMapper struct{}

func (itemMapper) Cleanup(mapreduce.Emit, *sim.Ledger) error { return nil }

func (itemMapper) Map(items itemset.Itemset, emit mapreduce.Emit, _ *sim.Ledger) error {
	for _, it := range items {
		emit(strconv.Itoa(int(it)), "1")
	}
	return nil
}

// CountSpec describes the exact candidate-counting job MRApriori submits
// for every pass k >= 2. The job parses the candidate k-itemsets, shipped
// through the distributed cache as cacheName, into one hash tree, and each
// mapper counts occurrences over its split; the combiner sums partial
// counts; the reducer keeps the candidates counted at least minCount times.
// The output holds one <SetKey, count> record per surviving candidate. Zero
// task counts take the executor's defaults.
func CountSpec(name, inputPath, cacheName string, cands []itemset.Itemset,
	minCount, reducers, mapTasks int) *dist.JobSpec {
	// A string and an int always marshal.
	params, _ := json.Marshal(countParams{CachePath: cacheName, MinCount: minCount})
	return &dist.JobSpec{
		Name:        name,
		Type:        JobTypeCount,
		Params:      params,
		InputPath:   inputPath,
		NumMaps:     mapTasks,
		NumReducers: reducers,
		Cache:       map[string][]byte{cacheName: EncodeCandidates(cands)},
	}
}

// countJob is one counting job's candidates, parsed once per job: their
// hash tree and each candidate's key text. Its map tasks only read it, each
// through its own Matcher.
type countJob struct {
	tree  *hashtree.Tree
	keys  []string // candidate index -> emitted key text
	build float64  // the tree's construction ops, charged to every map task
}

// newCountJob builds JobTypeCount: it decodes the params, parses the
// candidate file from the distributed cache into one hash tree and formats
// every candidate's key. The file arrives over the wire, so one whose
// candidates differ in length is rejected. A Hadoop mapper builds its tree
// in its own setup, so every map task is charged its construction, though
// an executor builds the job once per process.
func newCountJob(params []byte, cache mapreduce.CacheFiles) (mapreduce.Tasks, error) {
	cp, err := decodeCountParams(params)
	if err != nil {
		return mapreduce.Tasks{}, err
	}
	data, ok := cache[cp.CachePath]
	if !ok {
		return mapreduce.Tasks{}, fmt.Errorf("mrapriori: candidate cache file %s not localised", cp.CachePath)
	}
	var cands []itemset.Itemset
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		set, err := ParseSet(line)
		if err != nil {
			return mapreduce.Tasks{}, fmt.Errorf("mrapriori: candidate file: %w", err)
		}
		if len(cands) > 0 && set.Len() != cands[0].Len() {
			return mapreduce.Tasks{}, fmt.Errorf("mrapriori: candidate file %s mixes %d- and %d-itemsets",
				cp.CachePath, cands[0].Len(), set.Len())
		}
		cands = append(cands, set)
	}
	if len(cands) == 0 {
		return mapreduce.Tasks{}, fmt.Errorf("mrapriori: candidate file %s is empty", cp.CachePath)
	}
	job := &countJob{
		tree:  hashtree.Build(cands),
		keys:  make([]string, len(cands)),
		build: float64(len(cands) * cands[0].Len()),
	}
	for i, c := range cands {
		job.keys[i] = SetKey(c)
	}
	return mapreduce.Tasks{
		NewMapper:   job.newMapper,
		NewCombiner: func() mapreduce.Reducer { return sumReducer{} },
		NewReducer:  func() mapreduce.Reducer { return sumReducer{minCount: cp.MinCount} },
	}, nil
}

// countMapper is the counting job's mapper (Algorithm 3 in MapReduce
// form). It counts candidate occurrences across the task's whole input
// split into a dense array (in-mapper combining) and emits one
// <candidate, count> record per locally occurring candidate at cleanup —
// instead of one <candidate, 1> record per match, which is what the
// combiner would otherwise have to crunch back down.
type countMapper struct {
	job     *countJob
	matcher *hashtree.Matcher
	counts  []int   // dense candidate counts for this split
	ops     float64 // batched subset-op CPU charges, flushed periodically
	rows    int
}

func (j *countJob) newMapper() mapreduce.Mapper {
	return &countMapper{job: j, matcher: j.tree.NewMatcher(), counts: make([]int, len(j.keys))}
}

// opsFlushRows is how many rows of subset-enumeration charges a count
// mapper batches locally before flushing them to the task ledger.
const opsFlushRows = 512

func (m *countMapper) Cleanup(emit mapreduce.Emit, led *sim.Ledger) error {
	led.AddCPU(m.job.build + m.ops) // the tree's construction and the last rows' walks
	m.ops = 0
	for i, c := range m.counts {
		if c != 0 {
			emit(m.job.keys[i], strconv.Itoa(c))
		}
	}
	return nil
}

func (m *countMapper) Map(items itemset.Itemset, emit mapreduce.Emit, led *sim.Ledger) error {
	counts := m.counts
	m.ops += float64(m.matcher.Subset(items, func(i int) { counts[i]++ }))
	if m.rows++; m.rows%opsFlushRows == 0 {
		led.AddCPU(m.ops)
		m.ops = 0
	}
	return nil
}

// sumReducer sums the integer values of a key and keeps the keys reaching
// minCount — lines 11-18 of Algorithm 3. With minCount 0 it keeps every key:
// the combiner of every job and the reducer of pass 1.
type sumReducer struct{ minCount int }

func (r sumReducer) Reduce(key string, values []string, emit mapreduce.Emit, _ *sim.Ledger) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("mrapriori: bad partial count %q for key %q", v, key)
		}
		total += n
	}
	if total >= r.minCount {
		emit(key, strconv.Itoa(total))
	}
	return nil
}
