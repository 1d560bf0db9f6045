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

// assertParity runs tx through the matcher m and the reference pointer
// walk, failing unless both visit the same candidates in the same order at
// the same ops.
func assertParity(t *testing.T, label string, tree *Tree, root *node, m *Matcher, tx itemset.Itemset) {
	t.Helper()
	var wantVisits, gotVisits []int
	wantOps := refSubset(tree, root, tx, func(i int) { wantVisits = append(wantVisits, i) })
	gotOps := m.Subset(tx, func(i int) { gotVisits = append(gotVisits, i) })
	if !reflect.DeepEqual(gotVisits, wantVisits) {
		t.Fatalf("%s k=%d tx=%v: flat visits %v, pointer visits %v",
			label, tree.k, tx, gotVisits, wantVisits)
	}
	if gotOps != wantOps {
		t.Fatalf("%s k=%d tx=%v: flat ops %d, pointer ops %d",
			label, tree.k, tx, gotOps, wantOps)
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

// sigOf is the signature of items over tree's dense ids, as a leaf entry
// or a row holds it: bit d&63 for every indexed item d.
func sigOf(tree *Tree, items itemset.Itemset) uint64 {
	var sig uint64
	for _, it := range items {
		if d := tree.index.DenseOf(it); d >= 0 {
			sig |= 1 << (d & 63)
		}
	}
	return sig
}

// signatureFamily returns distinct k-candidates over items 0..universe-1
// that together hold every one of them, so dense id equals item: a ring of
// consecutive items from each item, then random sets.
func signatureFamily(rng *rand.Rand, k, universe, extra int) []itemset.Itemset {
	seen := map[string]bool{}
	var out []itemset.Itemset
	add := func(s itemset.Itemset) {
		if !seen[s.Key()] {
			seen[s.Key()] = true
			out = append(out, s)
		}
	}
	for i := 0; i < universe; i++ {
		items := make([]itemset.Item, k)
		for j := range items {
			items[j] = itemset.Item((i + j) % universe)
		}
		add(itemset.New(items...))
	}
	for _, c := range randomCandidates(rng, extra, k, universe) {
		add(c)
	}
	return out
}

// collidingRow returns a row that holds candidate c but one item, x, and
// instead x's partner x±64, plus a few random items other than x. On a
// tree of more than 64 dense items that partner shares x's signature bit
// whenever it is indexed, so c passes the signature test and only the
// stamps can reject it; on an exact tree the partner is not indexed.
func collidingRow(rng *rand.Rand, c itemset.Itemset, universe int) itemset.Itemset {
	drop := rng.Intn(len(c))
	x := c[drop]
	partner := x + 64
	if x >= 64 {
		partner = x - 64
	}
	items := append(append(append([]itemset.Item(nil), c[:drop]...), c[drop+1:]...), partner)
	for n := rng.Intn(4); n > 0; n-- {
		if it := itemset.Item(rng.Intn(universe + 5)); it != x {
			items = append(items, it)
		}
	}
	return itemset.New(items...)
}

// TestSignatureTestAtItsEdges locks the leaf's signature test to the
// pointer walk where it changes: families over exactly 64 dense items,
// whose signatures decide alone, and over 65 and 128, where ids d and d+64
// share a bit and a passing entry is confirmed against the stamps. Most
// rows lack one item of some candidate and hold that item's partner mod 64,
// so on the larger trees the candidate's signature passes and only the
// stamp check rejects it. Every row must match the pointer walk (visits,
// order, ops), and CountSupports must equal a ContainsAll scan.
func TestSignatureTestAtItsEdges(t *testing.T) {
	shapes := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"deep", []Option{WithFanout(2), WithMaxLeaf(1)}},
		{"long leaves", []Option{WithFanout(3), WithMaxLeaf(64)}},
	}
	for _, c := range []struct {
		k, universe int
		exact       bool
	}{
		{2, 64, true}, {3, 64, true}, {2, 65, false}, {3, 65, false}, {2, 128, false}, {4, 128, false},
	} {
		rng := rand.New(rand.NewSource(int64(100*c.k + c.universe)))
		cands := signatureFamily(rng, c.k, c.universe, 300)
		var rows []itemset.Transaction
		for i := 0; i < 200; i++ {
			row := collidingRow(rng, cands[rng.Intn(len(cands))], c.universe)
			if i%4 == 3 {
				row = randomTransaction(rng, 3*c.k, c.universe+5)
			}
			rows = append(rows, itemset.Transaction{Items: row})
		}
		// The dense ids, and so the signatures, do not depend on the shape.
		ref := Build(cands)
		want := make([]int, len(cands))
		falsePasses := 0
		for _, row := range rows {
			rowSig := sigOf(ref, row.Items)
			for i, cand := range cands {
				if row.Items.ContainsAll(cand) {
					want[i]++
				} else if sigOf(ref, cand)&^rowSig == 0 {
					falsePasses++
				}
			}
		}
		if c.exact && falsePasses != 0 {
			t.Fatalf("k=%d universe %d: %d signature passes of absent candidates on an exact tree",
				c.k, c.universe, falsePasses)
		}
		if !c.exact && falsePasses == 0 {
			t.Fatalf("k=%d universe %d: no row passes an absent candidate's signature", c.k, c.universe)
		}
		for _, shape := range shapes {
			tree := Build(cands, shape.opts...)
			label := fmt.Sprintf("k=%d universe %d %s", c.k, c.universe, shape.name)
			if tree.index.Len() != c.universe || tree.exact != c.exact {
				t.Fatalf("%s: %d dense items, exact %v; want %d, %v",
					label, tree.index.Len(), tree.exact, c.universe, c.exact)
			}
			root := tree.pointerTree()
			m := tree.NewMatcher()
			for i, row := range rows {
				assertParity(t, fmt.Sprintf("%s row %d", label, i), tree, root, m, row.Items)
			}
			if got, _ := tree.CountSupports(rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: CountSupports %v, ContainsAll scan %v", label, got, want)
			}
		}
	}
}

// TestWarmSubsetAllocatesNothing checks that a matcher which has seen its
// longest row enumerates without allocating, on an exact tree and on a
// tree whose signatures are confirmed against the stamps.
func TestWarmSubsetAllocatesNothing(t *testing.T) {
	for _, universe := range []int{64, 65} {
		cands := kSubsets(2, universe, math.MaxInt)
		tree := Build(cands)
		m := tree.NewMatcher()
		long := make([]itemset.Item, universe+rowScratch)
		for i := range long {
			long[i] = itemset.Item(i)
		}
		rows := []itemset.Itemset{itemset.New(long...), itemset.New(0, 3, 64), itemset.New(1, 2)}
		counts := make([]int, len(cands))
		visit := func(i int) { counts[i]++ }
		for _, row := range rows {
			m.Subset(row, visit)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, row := range rows {
				m.Subset(row, visit)
			}
		})
		if allocs != 0 {
			t.Fatalf("universe %d (exact %v): warm Subset allocates %.1f times per run",
				universe, tree.exact, allocs)
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
			txs[i] = itemset.Transaction{Items: randomTransaction(rng, 10, universe)}
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
