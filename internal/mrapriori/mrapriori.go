// Package mrapriori implements the paper's comparator: a k-phase parallel
// Apriori on Hadoop-style MapReduce (the PApriori algorithm of Li et al.,
// reference [16], which the paper calls MRApriori). Each pass over the
// candidate lattice is a complete MapReduce job that re-reads the
// transaction dataset from the DFS, distributes the current candidate set
// through the distributed cache, counts supports in mappers with the same
// hash tree YAFIM uses, and commits the frequent itemsets back to the DFS —
// paying job startup and input I/O on every iteration.
//
// The package also implements the SPC/FPC/DPC family of Lin et al.
// (reference [17]): SPC is the plain one-job-per-pass algorithm; FPC
// merges a fixed number of speculative candidate levels into each job; DPC
// merges levels dynamically under a candidate budget.
//
// Every job is submitted through a dist.Executor as a registered job type,
// so one driver runs on the virtual-time simulator (dist.Local) and on the
// real multi-process runtime (dist.Master).
package mrapriori

import (
	"fmt"
	"strconv"
	"strings"

	"yafim/internal/apriori"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
)

// Variant selects the pass-combining strategy.
type Variant int

const (
	// SPC runs one MapReduce job per candidate length (PApriori/MRApriori).
	SPC Variant = iota
	// FPC combines a fixed number of speculative candidate levels per job.
	FPC
	// DPC combines candidate levels dynamically under a candidate budget.
	DPC
)

func (v Variant) String() string {
	switch v {
	case SPC:
		return "SPC"
	case FPC:
		return "FPC"
	case DPC:
		return "DPC"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config parameterises a mining run.
type Config struct {
	// MinSupport is the relative minimum support threshold in (0,1].
	MinSupport float64
	// NumReducers sets reduce-side parallelism (0 = executor default).
	NumReducers int
	// MaxK stops after frequent itemsets of this size (0 = unbounded).
	MaxK int
	// Variant selects SPC (default), FPC or DPC.
	Variant Variant
	// FPCPasses is the number of candidate levels per job under FPC
	// (default 3, the value Lin et al. study).
	FPCPasses int
	// DPCBudget caps the combined candidate count per job under DPC
	// (default 50000).
	DPCBudget int
	// NumMapTasks is a minimum map-task count hint per job (0 = executor
	// default).
	NumMapTasks int
}

// generateBatch produces the candidate levels for the next job, starting at
// length k: one level for SPC, a fixed count for FPC, and as many as fit the
// candidate budget for DPC. Speculative levels are generated by treating the
// previous candidates as if frequent, which preserves completeness because
// Gen is monotone in its input family.
func generateBatch(prev []itemset.Itemset, v Variant, fpcPasses, budget, maxK, k int) ([][]itemset.Itemset, error) {
	levels := 1
	switch v {
	case SPC:
	case FPC:
		levels = fpcPasses
	case DPC:
		levels = 1 << 30 // bounded by the budget below
	default:
		return nil, fmt.Errorf("unknown variant %v", v)
	}
	var batch [][]itemset.Itemset
	total := 0
	for i := 0; i < levels; i++ {
		if maxK != 0 && k+i > maxK {
			break
		}
		cands, err := apriori.Gen(prev)
		if err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			break
		}
		if v == DPC && len(batch) > 0 && total+len(cands) > budget {
			break
		}
		batch = append(batch, cands)
		total += len(cands)
		prev = cands
	}
	return batch, nil
}

// EncodeCandidates renders candidate levels as the counting job's candidate
// file: one SetKey per line.
func EncodeCandidates(batch [][]itemset.Itemset) []byte {
	var sb strings.Builder
	for _, cands := range batch {
		for _, c := range cands {
			sb.WriteString(SetKey(c))
			sb.WriteByte('\n')
		}
	}
	return []byte(sb.String())
}

// SetKey renders an itemset as its canonical text key: space-separated
// decimal items, the .dat line format. This is both the cache-file line
// format and the MapReduce key emitted for each candidate occurrence.
func SetKey(s itemset.Itemset) string {
	var sb strings.Builder
	for i, it := range s {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.Itoa(int(it)))
	}
	return sb.String()
}

// ParseSet parses a SetKey. Unlike a transaction line, a key is never
// empty.
func ParseSet(text string) (itemset.Itemset, error) {
	set, err := itemset.ParseLine(text)
	if err == nil && len(set) == 0 {
		err = fmt.Errorf("empty itemset text")
	}
	return set, err
}

func parseCountedSet(kv mapreduce.KV) (int, itemset.Itemset, error) {
	count, err := strconv.Atoi(kv.Value)
	if err != nil {
		return 0, nil, fmt.Errorf("bad count %q for key %q", kv.Value, kv.Key)
	}
	set, err := ParseSet(kv.Key)
	if err != nil {
		return 0, nil, err
	}
	return count, set, nil
}
