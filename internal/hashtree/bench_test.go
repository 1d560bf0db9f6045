package hashtree

import (
	"math/rand"
	"testing"

	"yafim/internal/itemset"
)

func benchFixture(nCands, k, universe, txLen int) ([]itemset.Itemset, []itemset.Itemset) {
	rng := rand.New(rand.NewSource(1))
	cands := randomCandidates(rng, nCands, k, universe)
	txs := make([]itemset.Itemset, 256)
	for i := range txs {
		picks := rng.Perm(universe)[:txLen]
		items := make([]itemset.Item, txLen)
		for j, p := range picks {
			items[j] = itemset.Item(p)
		}
		txs[i] = itemset.New(items...)
	}
	return cands, txs
}

func BenchmarkBuild(b *testing.B) {
	cands, _ := benchFixture(10000, 3, 200, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(cands)
	}
}

func BenchmarkSubset(b *testing.B) {
	cands, txs := benchFixture(10000, 3, 200, 20)
	m := Build(cands).NewMatcher()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		m.Subset(txs[i%len(txs)], func(int) { n++ })
	}
}

// BenchmarkSubsetBruteForce is the baseline Subset replaces; compare with
// BenchmarkSubset to see the tree's advantage grow with candidate count.
func BenchmarkSubsetBruteForce(b *testing.B) {
	cands, txs := benchFixture(10000, 3, 200, 20)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		tx := txs[i%len(txs)]
		for _, c := range cands {
			if tx.ContainsAll(c) {
				n++
			}
		}
	}
}

func BenchmarkCountSupports(b *testing.B) {
	cands, txs := benchFixture(2000, 2, 100, 15)
	tree := Build(cands)
	trs := make([]itemset.Transaction, len(txs))
	for i, t := range txs {
		trs[i] = itemset.Transaction{Items: t}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.CountSupports(trs)
	}
}
