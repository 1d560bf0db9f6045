package apriori

import (
	"fmt"

	"yafim/internal/hashtree"
	"yafim/internal/itemset"
	"yafim/internal/trie"
)

// CountingStrategy selects how the sequential miner counts candidate
// supports during each pass.
type CountingStrategy int

const (
	// HashTreeCounting stores candidates in a hash tree and enumerates the
	// candidates contained in each transaction (the paper's structure).
	HashTreeCounting CountingStrategy = iota
	// BruteForceCounting tests every candidate against every transaction;
	// the ablation baseline for the hash tree.
	BruteForceCounting
	// BitmapCounting intersects vertical item bitmaps per candidate — the
	// fastest strategy for dense datasets such as Chess.
	BitmapCounting
	// TrieCounting stores candidates in a prefix trie instead of the hash
	// tree — the design-space alternative benchmarked in the ablations.
	TrieCounting
)

// Options configure the sequential miner.
type Options struct {
	Counting CountingStrategy
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

	var vertical *itemset.VerticalBitmap
	if opts.Counting == BitmapCounting {
		vertical = db.Vertical()
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
		var counts []int
		switch opts.Counting {
		case HashTreeCounting:
			counts, _ = hashtree.Build(cands).CountSupports(db.Transactions)
		case BruteForceCounting:
			counts = bruteForceCount(cands, db.Transactions)
		case BitmapCounting:
			counts = make([]int, len(cands))
			for i, c := range cands {
				counts[i] = vertical.Support(c)
			}
		case TrieCounting:
			counts, _ = trie.Build(cands).CountSupports(db.Transactions)
		default:
			return nil, fmt.Errorf("apriori: unknown counting strategy %d", opts.Counting)
		}
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

// frequentItems computes L_1 with a dense counting array.
func frequentItems(db *itemset.DB, minCount int) []SetCount {
	counts := make([]int, db.NumItems())
	for _, tr := range db.Transactions {
		for _, it := range tr.Items {
			counts[it]++
		}
	}
	var out []SetCount
	for it, c := range counts {
		if c >= minCount {
			out = append(out, SetCount{Set: itemset.New(itemset.Item(it)), Count: c})
		}
	}
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

// bruteForceCount is the no-hash-tree counting baseline.
func bruteForceCount(cands []itemset.Itemset, txs []itemset.Transaction) []int {
	counts := make([]int, len(cands))
	for _, tr := range txs {
		for i, c := range cands {
			if tr.Items.ContainsAll(c) {
				counts[i]++
			}
		}
	}
	return counts
}
