package yafim

import (
	"fmt"
	"math/rand"
	"testing"

	"yafim/internal/apriori"
	"yafim/internal/eclat"
	"yafim/internal/fpgrowth"
	"yafim/internal/itemset"
)

// reference: brute-force enumeration of all frequent itemsets.
func refMine(db *itemset.DB, minSupport float64) map[string]int {
	minCount := db.MinSupportCount(minSupport)
	// enumerate all itemsets over items present via DFS with support counting
	out := map[string]int{}
	numItems := db.NumItems()
	support := func(s itemset.Itemset) int {
		c := 0
		for _, tr := range db.Transactions {
			if tr.Items.ContainsAll(s) {
				c++
			}
		}
		return c
	}
	var dfs func(prefix itemset.Itemset, from int)
	dfs = func(prefix itemset.Itemset, from int) {
		for it := from; it < numItems; it++ {
			cand := append(append(itemset.Itemset{}, prefix...), itemset.Item(it))
			c := support(cand)
			if c >= minCount {
				out[cand.Key()] = c
				dfs(cand, it+1)
			}
		}
	}
	dfs(nil, 0)
	return out
}

func cmpRes(t *testing.T, name string, ref map[string]int, res *apriori.Result, seed int64, sup float64) {
	t.Helper()
	got := res.All()
	if len(got) != len(ref) {
		t.Errorf("seed=%d sup=%v %s: got %d frequent, ref %d", seed, sup, name, len(got), len(ref))
	}
	for k, v := range ref {
		if got[k] != v {
			s, _ := itemset.FromKey(k)
			t.Errorf("seed=%d sup=%v %s: set %v got count %d want %d", seed, sup, name, s, got[k], v)
			return
		}
	}
	// check Levels alignment
	for i, l := range res.Levels {
		if l.K != i+1 {
			t.Errorf("seed=%d sup=%v %s: Levels[%d].K = %d", seed, sup, name, i, l.K)
		}
		for _, sc := range l.Sets {
			if sc.Set.Len() != i+1 {
				t.Errorf("seed=%d sup=%v %s: Levels[%d] holds %v", seed, sup, name, i, sc.Set)
			}
		}
	}
}

func TestFuzzCompare(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nTx := 1 + rng.Intn(40)
		nItems := 1 + rng.Intn(12)
		rows := make([][]itemset.Item, nTx)
		for i := range rows {
			l := rng.Intn(nItems + 1)
			for j := 0; j < l; j++ {
				rows[i] = append(rows[i], itemset.Item(rng.Intn(nItems)))
			}
		}
		db := itemset.NewDB(fmt.Sprintf("fuzz%d", seed), rows)
		for _, sup := range []float64{0.05, 0.2, 0.5, 0.9} {
			ref := refMine(db, sup)
			for _, strat := range []apriori.CountingStrategy{apriori.HashTreeCounting, apriori.BruteForceCounting, apriori.BitmapCounting, apriori.TrieCounting} {
				res, err := apriori.Mine(db, sup, apriori.Options{Counting: strat})
				if err != nil {
					t.Fatalf("seed=%d: %v", seed, err)
				}
				cmpRes(t, fmt.Sprintf("apriori-strat%d", strat), ref, res, seed, sup)
			}
			if res, err := eclat.Mine(db, sup); err != nil {
				t.Fatalf("seed=%d eclat: %v", seed, err)
			} else {
				cmpRes(t, "eclat", ref, res, seed, sup)
			}
			if res, err := fpgrowth.Mine(db, sup); err != nil {
				t.Fatalf("seed=%d fpgrowth: %v", seed, err)
			} else {
				cmpRes(t, "fpgrowth", ref, res, seed, sup)
			}
		}
	}
}
