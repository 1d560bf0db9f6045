package trie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"yafim/internal/hashtree"
	"yafim/internal/itemset"
)

func sets(raw ...[]itemset.Item) []itemset.Itemset {
	out := make([]itemset.Itemset, len(raw))
	for i, r := range raw {
		out[i] = itemset.New(r...)
	}
	return out
}

func TestSubsetBasic(t *testing.T) {
	tr := Build(sets(
		[]itemset.Item{1, 2}, []itemset.Item{1, 3}, []itemset.Item{2, 3},
		[]itemset.Item{2, 4}, []itemset.Item{3, 5},
	))
	if tr.K() != 2 || tr.Len() != 5 {
		t.Fatalf("trie shape k=%d len=%d", tr.K(), tr.Len())
	}
	var got []itemset.Itemset
	tr.Subset(itemset.New(1, 2, 3), func(i int) { got = append(got, tr.Candidate(i)) })
	itemset.SortSets(got)
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
	tr := Build(sets([]itemset.Item{1, 2, 3}))
	count := 0
	tr.Subset(itemset.New(1, 2), func(int) { count++ })
	if count != 0 {
		t.Fatal("short transaction matched")
	}
}

func TestBuildPanics(t *testing.T) {
	cases := map[string]func(){
		"empty":          func() { Build(nil) },
		"mixed lengths":  func() { Build(sets([]itemset.Item{1}, []itemset.Item{1, 2})) },
		"zero length":    func() { Build([]itemset.Itemset{{}}) },
		"unsorted":       func() { Build([]itemset.Itemset{{1, 2}, {5, 3}}) },
		"duplicate item": func() { Build([]itemset.Itemset{{1, 2}, {3, 3}}) },
		"duplicate candidate": func() {
			Build(sets([]itemset.Item{1, 2}, []itemset.Item{1, 2}, []itemset.Item{3, 5}))
		},
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
	tr := Build(sets([]itemset.Item{1, 2}, []itemset.Item{2, 3}))
	txs := []itemset.Transaction{
		{TID: 0, Items: itemset.New(1, 2, 3)},
		{TID: 1, Items: itemset.New(1, 2)},
		{TID: 2, Items: itemset.New(2, 3)},
	}
	counts, ops := tr.CountSupports(txs)
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if ops <= 0 {
		t.Fatalf("ops = %d", ops)
	}
}

// Property: the trie and the hash tree enumerate exactly the same matches
// on random candidates and transactions — the two candidate stores are
// interchangeable.
func TestSubsetMatchesHashTreeProperty(t *testing.T) {
	f := func(seed int64, k8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(k8%4) + 1
		universe := 18
		n := rng.Intn(30) + 1
		// Clamp to the number of distinct k-subsets available.
		maxC := 1
		for i := 0; i < k; i++ {
			maxC = maxC * (universe - i) / (i + 1)
		}
		if n > maxC {
			n = maxC
		}
		seen := map[string]bool{}
		var cands []itemset.Itemset
		for len(cands) < n {
			picks := rng.Perm(universe)[:k]
			items := make([]itemset.Item, k)
			for i, p := range picks {
				items[i] = itemset.Item(p)
			}
			s := itemset.New(items...)
			if !seen[s.Key()] {
				seen[s.Key()] = true
				cands = append(cands, s)
			}
		}
		tr := Build(cands)
		ht := hashtree.Build(cands)
		for trial := 0; trial < 5; trial++ {
			tlen := rng.Intn(universe)
			picks := rng.Perm(universe)[:tlen]
			items := make([]itemset.Item, tlen)
			for i, p := range picks {
				items[i] = itemset.Item(p)
			}
			tx := itemset.New(items...)
			gotTrie := map[string]bool{}
			tr.Subset(tx, func(i int) { gotTrie[tr.Candidate(i).Key()] = true })
			gotTree := map[string]bool{}
			ht.Subset(tx, func(i int) { gotTree[ht.Candidate(i).Key()] = true })
			if len(gotTrie) != len(gotTree) {
				return false
			}
			for key := range gotTree {
				if !gotTrie[key] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTrieSubset(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var cands []itemset.Itemset
	seen := map[string]bool{}
	for len(cands) < 10000 {
		picks := rng.Perm(200)[:3]
		s := itemset.New(itemset.Item(picks[0]), itemset.Item(picks[1]), itemset.Item(picks[2]))
		if !seen[s.Key()] {
			seen[s.Key()] = true
			cands = append(cands, s)
		}
	}
	tr := Build(cands)
	txs := make([]itemset.Itemset, 256)
	for i := range txs {
		picks := rng.Perm(200)[:20]
		items := make([]itemset.Item, 20)
		for j, p := range picks {
			items[j] = itemset.Item(p)
		}
		txs[i] = itemset.New(items...)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		tr.Subset(txs[i%len(txs)], func(int) { n++ })
	}
}
