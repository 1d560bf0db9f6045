// Package mrapriori implements the paper's comparator: a k-phase parallel
// Apriori on Hadoop-style MapReduce (the PApriori algorithm of Li et al.,
// reference [16], which the paper calls MRApriori). Each pass over the
// candidate lattice is a complete MapReduce job that re-reads the
// transaction dataset from the DFS, distributes the current candidate set
// through the distributed cache, counts supports in mappers with the same
// hash tree YAFIM uses, and commits the frequent itemsets back to the DFS —
// paying job startup and input I/O on every iteration.
//
// Every job is submitted through a dist.Executor as a registered job type,
// so one driver runs on the virtual-time simulator (dist.Local) and on the
// real multi-process runtime (dist.Master).
package mrapriori

import (
	"fmt"
	"strconv"
	"strings"

	"yafim/internal/itemset"
)

// Config parameterises a mining run.
type Config struct {
	// MinSupport is the relative minimum support threshold in (0,1].
	MinSupport float64
	// NumReducers sets reduce-side parallelism (0 = executor default).
	NumReducers int
	// MaxK stops after frequent itemsets of this size (0 = unbounded).
	MaxK int
	// NumMapTasks is a minimum map-task count hint per job (0 = executor
	// default).
	NumMapTasks int
}

// EncodeCandidates renders one candidate level as the counting job's
// candidate file: one SetKey per line.
func EncodeCandidates(cands []itemset.Itemset) []byte {
	var sb strings.Builder
	for _, c := range cands {
		sb.WriteString(SetKey(c))
		sb.WriteByte('\n')
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
