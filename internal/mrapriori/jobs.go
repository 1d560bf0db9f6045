package mrapriori

import (
	"encoding/json"
	"fmt"
	"sort"
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
	// CachePath is the distributed-cache name holding the candidate batch.
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
	dist.RegisterJobType(JobTypeItems, dist.JobType{
		NewMapper:   func([]byte) (mapreduce.Mapper, error) { return &itemMapper{}, nil },
		NewCombiner: func([]byte) (mapreduce.Reducer, error) { return sumReducer{}, nil },
		NewReducer:  func([]byte) (mapreduce.Reducer, error) { return sumReducer{}, nil },
	})
	dist.RegisterJobType(JobTypeCount, dist.JobType{
		NewMapper: func(p []byte) (mapreduce.Mapper, error) {
			cp, err := decodeCountParams(p)
			if err != nil {
				return nil, err
			}
			return &countMapper{cachePath: cp.CachePath}, nil
		},
		NewCombiner: func([]byte) (mapreduce.Reducer, error) { return sumReducer{}, nil },
		NewReducer: func(p []byte) (mapreduce.Reducer, error) {
			cp, err := decodeCountParams(p)
			if err != nil {
				return nil, err
			}
			return sumReducer{minCount: cp.MinCount}, nil
		},
	})
}

// itemMapper implements pass 1 (Algorithm 2 of the paper, in MapReduce
// form): emit <item, 1> for every item of every transaction.
type itemMapper struct{}

func (m *itemMapper) Setup(mapreduce.CacheFiles, *sim.Ledger) error { return nil }

func (m *itemMapper) Cleanup(mapreduce.Emit, *sim.Ledger) error { return nil }

func (m *itemMapper) Map(_ int64, line string, emit mapreduce.Emit, led *sim.Ledger) error {
	fields := strings.Fields(line)
	for _, f := range fields {
		if _, err := strconv.ParseUint(f, 10, 31); err != nil {
			return fmt.Errorf("mrapriori: bad transaction item %q", f)
		}
		emit(f, "1")
	}
	led.AddCPU(float64(len(line)))
	return nil
}

// CountSpec describes the exact candidate-counting job: MRApriori submits
// it for every pass k >= 2 and SON as its second job. Mappers load the
// candidate batch, shipped through the distributed cache as cacheName, into
// one hash tree per candidate length and count occurrences over their split;
// the combiner sums partial counts; the reducer keeps the candidates counted
// at least minCount times. The output holds one <SetKey, count> record per
// surviving candidate. Zero task counts take the executor's defaults.
func CountSpec(name, inputPath, cacheName string, batch [][]itemset.Itemset,
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
		Cache:       map[string][]byte{cacheName: EncodeCandidates(batch)},
	}
}

// countMapper is the counting job's mapper (Algorithm 3 in MapReduce
// form). It counts candidate occurrences across the task's whole input
// split into dense per-tree arrays (in-mapper combining) and emits one
// <candidate, count> record per locally occurring candidate at cleanup —
// instead of one <candidate, 1> record per match, which is what the
// combiner would otherwise have to crunch back down.
type countMapper struct {
	cachePath string
	keys      [][]string // per tree: candidate index -> emitted key text
	matchers  []*hashtree.Matcher
	counts    [][]int // per tree: dense candidate counts for this split
	ops       float64 // batched subset-op CPU charges, flushed periodically
	rows      int
}

func (m *countMapper) Setup(cache mapreduce.CacheFiles, led *sim.Ledger) error {
	data, ok := cache[m.cachePath]
	if !ok {
		return fmt.Errorf("mrapriori: candidate cache file %s not localised", m.cachePath)
	}
	byLen := map[int][]itemset.Itemset{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		set, err := ParseSet(line)
		if err != nil {
			return fmt.Errorf("mrapriori: candidate file: %w", err)
		}
		byLen[set.Len()] = append(byLen[set.Len()], set)
	}
	if len(byLen) == 0 {
		return fmt.Errorf("mrapriori: candidate file %s is empty", m.cachePath)
	}
	lengths := make([]int, 0, len(byLen))
	for k := range byLen {
		lengths = append(lengths, k)
	}
	sort.Ints(lengths) // deterministic tree order
	for _, k := range lengths {
		cands := byLen[k]
		tree := hashtree.Build(cands)
		keys := make([]string, len(cands))
		for i, c := range cands {
			keys[i] = SetKey(c)
		}
		m.keys = append(m.keys, keys)
		m.matchers = append(m.matchers, tree.NewMatcher())
		m.counts = append(m.counts, make([]int, len(cands)))
		led.AddCPU(float64(len(cands) * k)) // tree construction
	}
	return nil
}

// opsFlushRows is how many rows of subset-enumeration charges a count
// mapper batches locally before flushing them to the task ledger.
const opsFlushRows = 512

func (m *countMapper) Cleanup(emit mapreduce.Emit, led *sim.Ledger) error {
	led.AddCPU(m.ops)
	m.ops = 0
	for ti, counts := range m.counts {
		for i, c := range counts {
			if c != 0 {
				emit(m.keys[ti][i], strconv.Itoa(c))
			}
		}
	}
	return nil
}

func (m *countMapper) Map(_ int64, line string, emit mapreduce.Emit, led *sim.Ledger) error {
	set, err := itemset.ParseLine(line)
	if err != nil {
		return fmt.Errorf("mrapriori: transaction: %w", err)
	}
	led.AddCPU(float64(len(line)))
	for ti, matcher := range m.matchers {
		counts := m.counts[ti]
		m.ops += float64(matcher.Subset(set, func(i int) { counts[i]++ }))
	}
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

func (sumReducer) Setup(mapreduce.CacheFiles, *sim.Ledger) error { return nil }

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
