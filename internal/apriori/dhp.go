package apriori

import (
	"fmt"

	"yafim/internal/hashtree"
	"yafim/internal/itemset"
)

// MineDHP runs Apriori with Park, Chen & Yu's Direct Hashing and Pruning
// refinement for the candidate-heavy second pass: while counting items in
// pass 1, every 2-subset of every transaction is hashed into a bucket
// counter; a candidate 2-itemset can only be frequent if its bucket count
// reaches the minimum support (bucket counts over-approximate supports, so
// the filter is lossless). On sparse datasets with large L1 this discards
// most of C2 before any counting happens.
//
// Passes three and beyond proceed as plain Apriori — hashing all k-subsets
// of long transactions grows combinatorially, so, as in the original paper,
// DHP's table is most valuable exactly once.
func MineDHP(db *itemset.DB, minSupport float64, buckets int) (*Result, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("apriori: empty database %q", db.Name)
	}
	if buckets <= 0 {
		buckets = 1 << 16
	}
	minCount := db.MinSupportCount(minSupport)
	res := &Result{MinSupport: minCount}

	// Pass 1: item counts plus the DHP bucket table for pairs.
	itemCounts := make([]int, db.NumItems())
	table := make([]int32, buckets)
	for _, tr := range db.Transactions {
		items := tr.Items
		for i, a := range items {
			itemCounts[a]++
			for _, b := range items[i+1:] {
				table[pairBucket(a, b, buckets)]++
			}
		}
	}
	var l1 []SetCount
	for it, c := range itemCounts {
		if c >= minCount {
			l1 = append(l1, SetCount{Set: itemset.New(itemset.Item(it)), Count: c})
		}
	}
	if len(l1) == 0 {
		return res, nil
	}
	res.Levels = append(res.Levels, NewLevel(1, l1))

	// Pass 2: generate C2 and discard candidates whose bucket cannot reach
	// the threshold.
	c2, err := Gen(SetsOf(l1))
	if err != nil {
		return nil, err
	}
	pruned := c2[:0]
	for _, c := range c2 {
		if int(table[pairBucket(c[0], c[1], buckets)]) >= minCount {
			pruned = append(pruned, c)
		}
	}
	prev := SetsOf(l1)
	for k := 2; ; k++ {
		var cands []itemset.Itemset
		if k == 2 {
			cands = pruned
		} else {
			cands, err = Gen(prev)
			if err != nil {
				return nil, err
			}
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

// pairBucket hashes an ordered item pair into the DHP table.
func pairBucket(a, b itemset.Item, buckets int) int {
	h := uint64(a)*2654435761 ^ uint64(b)*40503
	return int(h % uint64(buckets))
}
