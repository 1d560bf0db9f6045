package hashtree

import (
	"fmt"
	"math"
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
// remapping, the touched-children bitmaps or the stamped containment test
// shows up as a parity failure here.

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

// assertParity runs tx through the matcher m, the pooled Tree.Subset and
// the reference pointer walk, failing unless all three visit the same
// candidates in the same order at the same ops.
func assertParity(t *testing.T, label string, tree *Tree, root *node, m *Matcher, tx itemset.Itemset) {
	t.Helper()
	var wantVisits, gotVisits, pooledVisits []int
	wantOps := refSubset(tree, root, tx, func(i int) { wantVisits = append(wantVisits, i) })
	gotOps := m.Subset(tx, func(i int) { gotVisits = append(gotVisits, i) })
	pooledOps := tree.Subset(tx, func(i int) { pooledVisits = append(pooledVisits, i) })
	if !reflect.DeepEqual(gotVisits, wantVisits) {
		t.Fatalf("%s k=%d tx=%v: flat visits %v, pointer visits %v",
			label, tree.k, tx, gotVisits, wantVisits)
	}
	if gotOps != wantOps {
		t.Fatalf("%s k=%d tx=%v: flat ops %d, pointer ops %d",
			label, tree.k, tx, gotOps, wantOps)
	}
	if !reflect.DeepEqual(pooledVisits, wantVisits) || pooledOps != wantOps {
		t.Fatalf("%s: pooled Subset diverges from reference", label)
	}
}

// TestFlatWalkMatchesPointerWalk drives random candidate sets and
// transactions through both walks across seeds and tree shapes, requiring
// identical visit sequences and identical ops. The shapes include a fanout
// far wider than any row and one that is not a power of two.
func TestFlatWalkMatchesPointerWalk(t *testing.T) {
	shapes := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"deep", []Option{WithFanout(2), WithMaxLeaf(1)}},
		{"wide", []Option{WithFanout(64), WithMaxLeaf(4)}},
		{"wider than rows", []Option{WithFanout(256)}},
		{"odd fanout", []Option{WithFanout(7)}},
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
			label := fmt.Sprintf("seed %d %s", seed, shape.name)
			for row := 0; row < 50; row++ {
				assertParity(t, label, tree, root, m, randomTransaction(rng, 12, universe+5))
			}
		}
	}
}

// TestFlatWalkMatchesPointerWalkLargeC2 checks parity on a pass-2 candidate
// set as large as T10I4D100K's, on which adaptiveFanout picks fanout 128,
// with rows from two items to 300, longer than a new Matcher's row
// scratch. One matcher serves every row, so a long row must not disturb
// the short rows after it.
func TestFlatWalkMatchesPointerWalkLargeC2(t *testing.T) {
	cands := kSubsets(2, 400, math.MaxInt)
	tree := Build(cands)
	if tree.fanout != 128 {
		t.Fatalf("adaptive fanout %d for %d 2-candidates, want 128", tree.fanout, len(cands))
	}
	root := tree.pointerTree()
	m := tree.NewMatcher()
	rng := rand.New(rand.NewSource(2014))
	for _, n := range []int{2, 10, 12, 40, 300, 3, 11, 300, 150, 9} {
		picks := rng.Perm(410)[:n] // a few items no candidate contains
		items := make([]itemset.Item, n)
		for i, p := range picks {
			items[i] = itemset.Item(p)
		}
		assertParity(t, fmt.Sprintf("%d-item row", n), tree, root, m, itemset.New(items...))
	}
}

// TestMatcherRowStampWraps drives a matcher across the wrap of its row
// counter: the membership stamps of the first rows must not leak into the
// rows that reuse their numbers after the wrap.
func TestMatcherRowStampWraps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cands := randomCandidates(rng, 60, 2, 20)
	tree := Build(cands)
	root := tree.pointerTree()
	m := tree.NewMatcher()
	for row := 0; row < 20; row++ {
		if row == 10 {
			m.row = math.MaxInt32 - 3
		}
		assertParity(t, fmt.Sprintf("row %d", row), tree, root, m, randomTransaction(rng, 9, 22))
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
