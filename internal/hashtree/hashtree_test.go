package hashtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"yafim/internal/itemset"
)

func sets(raw ...[]itemset.Item) []itemset.Itemset {
	out := make([]itemset.Itemset, len(raw))
	for i, r := range raw {
		out[i] = itemset.New(r...)
	}
	return out
}

func collectMatches(t *Tree, tr itemset.Itemset) []itemset.Itemset {
	var got []itemset.Itemset
	t.NewMatcher().Subset(tr, func(i int) { got = append(got, t.Candidate(i)) })
	itemset.SortSets(got)
	return got
}

func TestSubsetBasic(t *testing.T) {
	tree := Build(sets(
		[]itemset.Item{1, 2}, []itemset.Item{1, 3}, []itemset.Item{2, 3},
		[]itemset.Item{2, 4}, []itemset.Item{3, 5},
	))
	if tree.k != 2 || tree.Len() != 5 {
		t.Fatalf("tree shape k=%d len=%d", tree.k, tree.Len())
	}
	got := collectMatches(tree, itemset.New(1, 2, 3))
	want := sets([]itemset.Item{1, 2}, []itemset.Item{1, 3}, []itemset.Item{2, 3})
	if len(got) != len(want) {
		t.Fatalf("matches = %v", got)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("matches = %v, want %v", got, want)
		}
	}
}

func TestSubsetShortTransaction(t *testing.T) {
	tree := Build(sets([]itemset.Item{1, 2, 3}))
	if got := collectMatches(tree, itemset.New(1, 2)); got != nil {
		t.Fatalf("short transaction matched %v", got)
	}
}

func TestSubsetNoMatch(t *testing.T) {
	tree := Build(sets([]itemset.Item{1, 2}, []itemset.Item{3, 4}))
	if got := collectMatches(tree, itemset.New(5, 6, 7)); got != nil {
		t.Fatalf("unexpected matches %v", got)
	}
}

func TestLeafSplitting(t *testing.T) {
	// More candidates than one leaf can hold forces interior nodes; every
	// candidate must still be found in a transaction containing all items.
	var cands []itemset.Itemset
	var all []itemset.Item
	for a := itemset.Item(0); a < 12; a++ {
		all = append(all, a)
		for b := a + 1; b < 12; b++ {
			cands = append(cands, itemset.New(a, b))
		}
	}
	tree := Build(cands, WithMaxLeaf(2), WithFanout(3))
	got := collectMatches(tree, itemset.New(all...))
	if len(got) != len(cands) {
		t.Fatalf("found %d of %d candidates after splits", len(got), len(cands))
	}
	if tree.nodes[0].child < 0 {
		t.Fatal("tree never split despite tiny leaves")
	}
}

func TestDeepSplitStopsAtK(t *testing.T) {
	// Candidates identical in their first items cannot split forever; the
	// leaf at depth k must simply grow.
	cands := sets(
		[]itemset.Item{1, 2, 3},
		[]itemset.Item{1, 2, 6},
		[]itemset.Item{1, 2, 9},
		[]itemset.Item{1, 2, 12},
	)
	// Fanout 3: items 3,6,9,12 all hash to 0, as do 1 and 2 partially.
	tree := Build(cands, WithMaxLeaf(1), WithFanout(3))
	got := collectMatches(tree, itemset.New(1, 2, 3, 6, 9, 12))
	if len(got) != 4 {
		t.Fatalf("found %d of 4 clustered candidates", len(got))
	}
}

func TestBuildPanics(t *testing.T) {
	cases := map[string]func(){
		"empty":         func() { Build(nil) },
		"mixed lengths": func() { Build(sets([]itemset.Item{1}, []itemset.Item{1, 2})) },
		"zero length":   func() { Build([]itemset.Itemset{{}}) },
		"bad fanout":    func() { Build(sets([]itemset.Item{1}), WithFanout(1)) },
		"bad leaf":      func() { Build(sets([]itemset.Item{1}), WithMaxLeaf(0)) },
		// Non-canonical candidates bypass sets (which canonicalises): their
		// counts would depend on the tree's shape.
		"unsorted":       func() { Build([]itemset.Itemset{{5, 3}, {1, 2}}) },
		"duplicate item": func() { Build([]itemset.Itemset{{1, 2}, {3, 3}}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCountSupports(t *testing.T) {
	tree := Build(sets([]itemset.Item{1, 2}, []itemset.Item{2, 3}))
	txs := []itemset.Transaction{
		{Items: itemset.New(1, 2, 3)},
		{Items: itemset.New(1, 2)},
		{Items: itemset.New(2, 3)},
		{Items: itemset.New(4)},
	}
	counts, ops := tree.CountSupports(txs)
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if ops <= 0 {
		t.Fatalf("ops = %d", ops)
	}
}

func TestSerializedBytesGrowsWithTree(t *testing.T) {
	small := Build(sets([]itemset.Item{1, 2}))
	big := Build(sets([]itemset.Item{1, 2}, []itemset.Item{3, 4}, []itemset.Item{5, 6}))
	if small.SerializedBytes() >= big.SerializedBytes() {
		t.Fatal("SerializedBytes not monotone in candidate count")
	}
}

// randomCandidates builds n distinct random k-itemsets over [0,universe).
func randomCandidates(rng *rand.Rand, n, k, universe int) []itemset.Itemset {
	seen := map[string]bool{}
	var out []itemset.Itemset
	for len(out) < n {
		picks := rng.Perm(universe)[:k]
		items := make([]itemset.Item, k)
		for i, p := range picks {
			items[i] = itemset.Item(p)
		}
		s := itemset.New(items...)
		if !seen[s.Key()] {
			seen[s.Key()] = true
			out = append(out, s)
		}
	}
	return out
}

// Property: for random candidate sets, transactions, and tree shapes, the
// hash tree finds exactly the candidates a brute-force subset scan finds.
func TestSubsetMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64, k8, fan8, leaf8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(k8%4) + 1
		fanout := int(fan8%7) + 2
		maxLeaf := int(leaf8%5) + 1
		universe := 20
		n := rng.Intn(40) + 1
		maxC := 1
		for i := 0; i < k; i++ {
			maxC = maxC * (universe - i) / (i + 1)
		}
		if n > maxC {
			n = maxC
		}
		cands := randomCandidates(rng, n, k, universe)
		tree := Build(cands, WithFanout(fanout), WithMaxLeaf(maxLeaf))

		for trial := 0; trial < 5; trial++ {
			tlen := rng.Intn(universe)
			picks := rng.Perm(universe)[:tlen]
			items := make([]itemset.Item, tlen)
			for i, p := range picks {
				items[i] = itemset.Item(p)
			}
			tr := itemset.New(items...)

			got := map[string]bool{}
			tree.NewMatcher().Subset(tr, func(i int) { got[tree.Candidate(i).Key()] = true })

			want := map[string]bool{}
			for _, c := range cands {
				if tr.ContainsAll(c) {
					want[c.Key()] = true
				}
			}
			if len(got) != len(want) {
				return false
			}
			for key := range want {
				if !got[key] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: each matching candidate is visited exactly once (no duplicate
// visits from multiple hash paths).
func TestSubsetVisitsOnceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cands := randomCandidates(rng, 30, 3, 15)
		tree := Build(cands, WithFanout(4), WithMaxLeaf(2))
		items := make([]itemset.Item, 15)
		for i := range items {
			items[i] = itemset.Item(i)
		}
		tr := itemset.New(items...) // contains everything
		visits := map[int]int{}
		tree.NewMatcher().Subset(tr, func(i int) { visits[i]++ })
		if len(visits) != len(cands) {
			return false
		}
		for _, n := range visits {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCandidatesAccessor(t *testing.T) {
	cands := sets([]itemset.Item{1, 2}, []itemset.Item{3, 4})
	tree := Build(cands)
	got := tree.Candidates()
	if len(got) != 2 || !got[0].Equal(cands[0]) {
		t.Fatalf("Candidates = %v", got)
	}
}
