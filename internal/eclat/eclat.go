// Package eclat implements Zaki's Eclat algorithm: frequent itemset mining
// over a vertical database layout, where each item maps to the sorted list
// of transaction ids containing it and supports are computed by tidlist
// intersection during a depth-first search of the prefix tree.
//
// Eclat serves two roles here: a related-work baseline (the paper discusses
// Dist-Eclat/BigFIM) and an independent correctness oracle for the Apriori
// implementations — a structurally different algorithm agreeing on every
// count is strong evidence both are right.
package eclat

import (
	"cmp"
	"fmt"
	"slices"

	"yafim/internal/apriori"
	"yafim/internal/itemset"
)

// tidlist is a sorted list of transaction indices.
type tidlist []int32

// intersect returns the ordered intersection of two tidlists.
func intersect(a, b tidlist) tidlist {
	out := make(tidlist, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Mine runs Eclat over db at the given relative minimum support, returning
// results in the same shape as the sequential Apriori miner.
func Mine(db *itemset.DB, minSupport float64) (*apriori.Result, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("eclat: empty database %q", db.Name)
	}
	minCount := db.MinSupportCount(minSupport)

	// Build the vertical layout in a map, so its memory follows the distinct
	// items, not the largest item id, and keep the frequent items in order.
	vertical := map[itemset.Item]tidlist{}
	for ti, tr := range db.Transactions {
		for _, it := range tr.Items {
			vertical[it] = append(vertical[it], int32(ti))
		}
	}
	type cell struct {
		item itemset.Item
		tids tidlist
	}
	var frontier []cell
	for it, tids := range vertical {
		if len(tids) >= minCount {
			frontier = append(frontier, cell{it, tids})
		}
	}
	slices.SortFunc(frontier, func(a, b cell) int { return cmp.Compare(a.item, b.item) })

	byLevel := map[int][]apriori.SetCount{}
	var dfs func(prefix itemset.Itemset, ext []cell)
	dfs = func(prefix itemset.Itemset, ext []cell) {
		for i, c := range ext {
			set := prefix.Extend(c.item)
			byLevel[set.Len()] = append(byLevel[set.Len()],
				apriori.SetCount{Set: set, Count: len(c.tids)})
			var next []cell
			for _, d := range ext[i+1:] {
				shared := intersect(c.tids, d.tids)
				if len(shared) >= minCount {
					next = append(next, cell{d.item, shared})
				}
			}
			if len(next) > 0 {
				dfs(set, next)
			}
		}
	}
	dfs(nil, frontier)

	res := &apriori.Result{MinSupport: minCount}
	for k := 1; ; k++ {
		sets, ok := byLevel[k]
		if !ok {
			break
		}
		res.Levels = append(res.Levels, apriori.NewLevel(k, sets))
	}
	return res, nil
}
