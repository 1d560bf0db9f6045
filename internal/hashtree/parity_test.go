package hashtree

import (
	"math/rand"
	"reflect"
	"testing"

	"yafim/internal/itemset"
)

// The flat walk (flat.go) must be indistinguishable from the pointer walk
// it compacted: same candidates visited, in the same order, at the same
// elementary-operation charge. The reference below replays the original
// recursive algorithm over a pointer tree from the builder Build compacts
// (Tree.pointerTree), so any drift in the flat layout, the dense item
// remapping, or the bitset containment test shows up as a parity failure
// here.

// refSubset is the pre-compaction pointer walk over root, the tree's
// pointer tree, preserved as the parity oracle.
func refSubset(t *Tree, root *node, items itemset.Itemset, visit func(i int)) int64 {
	if items.Len() < t.k {
		return 1
	}
	return refWalk(t, root, items, 0, visit)
}

func refWalk(t *Tree, n *node, items itemset.Itemset, from int, visit func(i int)) int64 {
	if n.children == nil {
		ops := int64(1)
		for _, e := range n.entries {
			ops += int64(t.k)
			if items.ContainsAll(t.sets[e]) {
				visit(e)
			}
		}
		return ops
	}
	ops := int64(1)
	seen := make([]bool, t.fanout)
	first := make([]int, t.fanout)
	for i := from; i < items.Len(); i++ {
		h := t.hash(items[i])
		if !seen[h] {
			seen[h] = true
			first[h] = i + 1
		}
	}
	for h := 0; h < t.fanout; h++ {
		if seen[h] {
			ops += refWalk(t, n.children[h], items, first[h], visit)
		}
	}
	return ops
}

// candidateCount caps a requested candidate count at the number of
// distinct k-subsets the universe can supply, so randomCandidates (shared
// with hashtree_test.go) terminates.
func candidateCount(rng *rand.Rand, max, k, universe int) int {
	distinct := 1
	for i := 0; i < k; i++ {
		distinct = distinct * (universe - i) / (i + 1)
	}
	n := rng.Intn(max) + 1
	if n > distinct {
		n = distinct
	}
	return n
}

func randomTransaction(rng *rand.Rand, maxLen, universe int) itemset.Itemset {
	items := make([]itemset.Item, rng.Intn(maxLen)+1)
	for i := range items {
		items[i] = itemset.Item(rng.Intn(universe))
	}
	return itemset.New(items...)
}

// TestFlatWalkMatchesPointerWalk drives random candidate sets and
// transactions through both walks across seeds and tree shapes, requiring
// identical visit sequences and identical ops.
func TestFlatWalkMatchesPointerWalk(t *testing.T) {
	shapes := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"deep", []Option{WithFanout(2), WithMaxLeaf(1)}},
		{"wide", []Option{WithFanout(64), WithMaxLeaf(4)}},
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(4) + 1
		universe := rng.Intn(40) + k + 1
		cands := randomCandidates(rng, candidateCount(rng, 200, k, universe), k, universe)
		for _, shape := range shapes {
			tree := Build(cands, shape.opts...)
			root := tree.pointerTree()
			m := tree.NewMatcher()
			for row := 0; row < 50; row++ {
				tx := randomTransaction(rng, 12, universe+5)
				var wantVisits, gotVisits, pooledVisits []int
				wantOps := refSubset(tree, root, tx, func(i int) { wantVisits = append(wantVisits, i) })
				gotOps := m.Subset(tx, func(i int) { gotVisits = append(gotVisits, i) })
				pooledOps := tree.Subset(tx, func(i int) { pooledVisits = append(pooledVisits, i) })
				if !reflect.DeepEqual(gotVisits, wantVisits) {
					t.Fatalf("seed %d %s k=%d tx=%v: flat visits %v, pointer visits %v",
						seed, shape.name, k, tx, gotVisits, wantVisits)
				}
				if gotOps != wantOps {
					t.Fatalf("seed %d %s k=%d tx=%v: flat ops %d, pointer ops %d",
						seed, shape.name, k, tx, gotOps, wantOps)
				}
				if !reflect.DeepEqual(pooledVisits, wantVisits) || pooledOps != wantOps {
					t.Fatalf("seed %d %s: pooled Subset diverges from reference", seed, shape.name)
				}
			}
		}
	}
}

// TestCountSupportsMatchesBruteForce checks the end product — support
// counts — against a direct ContainsAll scan of every candidate per
// transaction.
func TestCountSupportsMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(3) + 1
		universe := rng.Intn(30) + k + 1
		cands := randomCandidates(rng, candidateCount(rng, 120, k, universe), k, universe)
		txs := make([]itemset.Transaction, rng.Intn(80)+1)
		for i := range txs {
			txs[i] = itemset.Transaction{TID: int64(i), Items: randomTransaction(rng, 10, universe)}
		}
		tree := Build(cands)
		got, _ := tree.CountSupports(txs)
		want := make([]int, len(cands))
		for _, tx := range txs {
			for i, c := range cands {
				if tx.Items.ContainsAll(c) {
					want[i]++
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: CountSupports %v, brute force %v", seed, got, want)
		}
	}
}

// TestMatcherReuseAcrossTrees guards the epoch/bitset scratch: a matcher
// hammered with many rows (epoch growth) must stay exact, and matchers of
// different trees must not share state through the item index.
func TestMatcherReuseAcrossTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	candsA := randomCandidates(rng, 40, 2, 20)
	candsB := randomCandidates(rng, 40, 3, 35)
	treeA, treeB := Build(candsA), Build(candsB)
	mA, mB := treeA.NewMatcher(), treeB.NewMatcher()
	rootA, rootB := treeA.pointerTree(), treeB.pointerTree()
	for row := 0; row < 2000; row++ {
		tx := randomTransaction(rng, 9, 40)
		for _, pair := range []struct {
			tree *Tree
			root *node
			m    *Matcher
		}{{treeA, rootA, mA}, {treeB, rootB, mB}} {
			var got, want []int
			gotOps := pair.m.Subset(tx, func(i int) { got = append(got, i) })
			wantOps := refSubset(pair.tree, pair.root, tx, func(i int) { want = append(want, i) })
			if !reflect.DeepEqual(got, want) || gotOps != wantOps {
				t.Fatalf("row %d: reused matcher visits %v ops %d, want %v ops %d",
					row, got, gotOps, want, wantOps)
			}
		}
	}
}
