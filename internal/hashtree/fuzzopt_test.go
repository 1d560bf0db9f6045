package hashtree

import (
	"fmt"
	"math/rand"
	"testing"

	"yafim/internal/itemset"
)

func TestFuzzSubsetShapes(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(4)
		nItems := 2 + rng.Intn(30)
		// random distinct candidates of length k
		candSet := map[string]itemset.Itemset{}
		for tries := 0; tries < 60; tries++ {
			raw := make([]itemset.Item, k)
			for i := range raw {
				raw[i] = itemset.Item(rng.Intn(nItems))
			}
			c := itemset.New(raw...)
			if c.Len() == k {
				candSet[c.Key()] = c
			}
		}
		var cands []itemset.Itemset
		for _, c := range candSet {
			cands = append(cands, c)
		}
		if len(cands) == 0 {
			continue
		}
		itemset.SortSets(cands)

		var txs []itemset.Transaction
		for i := 0; i < 30; i++ {
			l := rng.Intn(nItems)
			raw := make([]itemset.Item, l)
			for j := range raw {
				raw[j] = itemset.Item(rng.Intn(nItems))
			}
			txs = append(txs, itemset.Transaction{Items: itemset.New(raw...)})
		}

		// brute-force reference
		ref := make([]int, len(cands))
		for _, tr := range txs {
			for i, c := range cands {
				if tr.Items.ContainsAll(c) {
					ref[i]++
				}
			}
		}

		shapes := [][]Option{
			nil,
			{WithFanout(2), WithMaxLeaf(1)},
			{WithFanout(3), WithMaxLeaf(2)},
			{WithFanout(2), WithMaxLeaf(16)},
			{WithFanout(16), WithMaxLeaf(1)},
		}
		for si, opts := range shapes {
			tree := Build(cands, opts...)
			counts, _ := tree.CountSupports(txs)
			for i := range ref {
				if counts[i] != ref[i] {
					t.Fatalf("seed=%d shape=%d cand %v: got %d want %d", seed, si, cands[i], counts[i], ref[i])
				}
			}
		}
	}
	fmt.Println("ok")
}
