package apriori

import (
	"fmt"
	"slices"

	"yafim/internal/hashtree"
	"yafim/internal/itemset"
)

// Options configure the sequential miner.
type Options struct {
	// MaxK stops mining after frequent itemsets of this size (0 = unbounded).
	MaxK int
	// Interrupt, when non-nil, is called before every pass; a non-nil return
	// aborts mining with that error. The facade uses it to honour context
	// cancellation and deadlines on the single-machine engine, which has no
	// task boundaries of its own.
	Interrupt func() error
}

// Mine runs the classic sequential Apriori algorithm (Algorithm 1 of the
// paper) over db at the given relative minimum support and returns every
// frequent itemset with its support count. It is the correctness oracle for
// the parallel implementations and the single-core baseline for speedup
// numbers.
func Mine(db *itemset.DB, minSupport float64, opts Options) (*Result, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("apriori: empty database %q", db.Name)
	}
	minCount := db.MinSupportCount(minSupport)
	res := &Result{MinSupport: minCount}
	if opts.Interrupt != nil {
		if err := opts.Interrupt(); err != nil {
			return nil, fmt.Errorf("apriori: %w", err)
		}
	}

	l1 := frequentItems(db, minCount)
	if len(l1) == 0 {
		return res, nil
	}
	res.Levels = append(res.Levels, NewLevel(1, l1))

	prev := SetsOf(l1)
	for k := 2; opts.MaxK == 0 || k <= opts.MaxK; k++ {
		if opts.Interrupt != nil {
			if err := opts.Interrupt(); err != nil {
				return nil, fmt.Errorf("apriori: pass %d: %w", k, err)
			}
		}
		cands, err := Gen(prev)
		if err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			break
		}
		counts, _ := hashtree.Build(cands).CountSupports(db.Transactions)
		var lk []SetCount
		for i, c := range counts {
			if c >= minCount {
				lk = append(lk, SetCount{Set: cands[i], Count: c})
			}
		}
		if len(lk) == 0 {
			break
		}
		res.Levels = append(res.Levels, NewLevel(k, lk))
		prev = SetsOf(lk)
	}
	return res, nil
}

// frequentItems computes L_1 in ascending order. It counts in a map, so its
// memory follows the distinct items, not the largest item id.
func frequentItems(db *itemset.DB, minCount int) []SetCount {
	counts := map[itemset.Item]int{}
	for _, tr := range db.Transactions {
		for _, it := range tr.Items {
			counts[it]++
		}
	}
	var out []SetCount
	for it, c := range counts {
		if c >= minCount {
			out = append(out, SetCount{Set: itemset.New(it), Count: c})
		}
	}
	slices.SortFunc(out, func(a, b SetCount) int { return a.Set.Compare(b.Set) })
	return out
}

// SetsOf returns the itemsets of scs, in order: the previous level as
// candidate generation takes it.
func SetsOf(scs []SetCount) []itemset.Itemset {
	out := make([]itemset.Itemset, len(scs))
	for i, sc := range scs {
		out[i] = sc.Set
	}
	return out
}
