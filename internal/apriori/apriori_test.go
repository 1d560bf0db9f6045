package apriori

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"yafim/internal/itemset"
)

func TestGenJoinAndPrune(t *testing.T) {
	l2 := []itemset.Itemset{
		itemset.New(1, 2), itemset.New(1, 3), itemset.New(1, 4),
		itemset.New(2, 3), itemset.New(2, 4),
	}
	got, err := Gen(l2)
	if err != nil {
		t.Fatal(err)
	}
	// Join yields {1,2,3},{1,2,4},{1,3,4},{2,3,4}; prune drops {1,3,4} and
	// {2,3,4} because {3,4} is not frequent.
	want := []itemset.Itemset{itemset.New(1, 2, 3), itemset.New(1, 2, 4)}
	if len(got) != len(want) {
		t.Fatalf("Gen = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("Gen = %v, want %v", got, want)
		}
	}
}

func TestGenFromSingletons(t *testing.T) {
	l1 := []itemset.Itemset{itemset.New(3), itemset.New(1), itemset.New(2)}
	got, err := Gen(l1)
	if err != nil {
		t.Fatal(err)
	}
	want := []itemset.Itemset{
		itemset.New(1, 2), itemset.New(1, 3), itemset.New(2, 3),
	}
	if len(got) != len(want) {
		t.Fatalf("Gen = %v", got)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("Gen = %v, want %v", got, want)
		}
	}
}

func TestGenEdgeCases(t *testing.T) {
	if got, err := Gen(nil); err != nil || got != nil {
		t.Fatalf("Gen(nil) = %v, %v", got, err)
	}
	if _, err := Gen([]itemset.Itemset{itemset.New(1), itemset.New(1, 2)}); err == nil {
		t.Fatal("mixed lengths accepted")
	}
	if _, err := Gen([]itemset.Itemset{{}}); err == nil {
		t.Fatal("zero-length itemsets accepted")
	}
	// A single itemset joins with nothing.
	if got, err := Gen([]itemset.Itemset{itemset.New(1, 2)}); err != nil || len(got) != 0 {
		t.Fatalf("Gen single = %v, %v", got, err)
	}
}

// Property: every generated candidate has all k-subsets frequent, and every
// (k+1)-itemset whose k-subsets are all frequent is generated.
func TestGenCompleteAndSoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 8
		// Random family of 2-itemsets.
		var l2 []itemset.Itemset
		seen := map[string]bool{}
		for i := 0; i < rng.Intn(12)+1; i++ {
			a := itemset.Item(rng.Intn(universe))
			b := itemset.Item(rng.Intn(universe))
			if a == b {
				continue
			}
			s := itemset.New(a, b)
			if !seen[s.Key()] {
				seen[s.Key()] = true
				l2 = append(l2, s)
			}
		}
		got, err := Gen(l2)
		if err != nil {
			return false
		}
		gotKeys := map[string]bool{}
		for _, c := range got {
			gotKeys[c.Key()] = true
		}
		// Brute-force expectation over all 3-subsets of the universe.
		for a := 0; a < universe; a++ {
			for b := a + 1; b < universe; b++ {
				for c := b + 1; c < universe; c++ {
					cand := itemset.New(itemset.Item(a), itemset.Item(b), itemset.Item(c))
					allSubsFreq := seen[itemset.New(itemset.Item(a), itemset.Item(b)).Key()] &&
						seen[itemset.New(itemset.Item(a), itemset.Item(c)).Key()] &&
						seen[itemset.New(itemset.Item(b), itemset.Item(c)).Key()]
					if allSubsFreq != gotKeys[cand.Key()] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// classicDB is the textbook example database (Han & Kamber).
func classicDB() *itemset.DB {
	return itemset.NewDB("classic", [][]itemset.Item{
		{1, 2, 5},
		{2, 4},
		{2, 3},
		{1, 2, 4},
		{1, 3},
		{2, 3},
		{1, 3},
		{1, 2, 3, 5},
		{1, 2, 3},
	})
}

func TestMineClassicExample(t *testing.T) {
	res, err := Mine(classicDB(), 2.0/9.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinSupport != 2 {
		t.Fatalf("MinSupport = %d", res.MinSupport)
	}
	if res.MaxK() != 3 {
		t.Fatalf("MaxK = %d", res.MaxK())
	}
	wantCounts := map[string]int{
		itemset.New(1).Key():       6,
		itemset.New(2).Key():       7,
		itemset.New(3).Key():       6,
		itemset.New(4).Key():       2,
		itemset.New(5).Key():       2,
		itemset.New(1, 2).Key():    4,
		itemset.New(1, 3).Key():    4,
		itemset.New(1, 5).Key():    2,
		itemset.New(2, 3).Key():    4,
		itemset.New(2, 4).Key():    2,
		itemset.New(2, 5).Key():    2,
		itemset.New(1, 2, 3).Key(): 2,
		itemset.New(1, 2, 5).Key(): 2,
	}
	got := res.All()
	if len(got) != len(wantCounts) {
		t.Fatalf("got %d frequent itemsets, want %d: %v", len(got), len(wantCounts), got)
	}
	for k, v := range wantCounts {
		if got[k] != v {
			t.Errorf("support(%v) = %d, want %d", keySet(k), got[k], v)
		}
	}
}

// bruteForceCount is the hash tree's oracle: it tests every candidate
// against every transaction.
func bruteForceCount(cands []itemset.Itemset, txs []itemset.Transaction) []int {
	counts := make([]int, len(cands))
	for _, tr := range txs {
		for i, c := range cands {
			if tr.Items.ContainsAll(c) {
				counts[i]++
			}
		}
	}
	return counts
}

// bruteForceMine is Mine with bruteForceCount in place of the hash tree.
func bruteForceMine(db *itemset.DB, minSupport float64) *Result {
	minCount := db.MinSupportCount(minSupport)
	res := &Result{MinSupport: minCount}
	l1 := frequentItems(db, minCount)
	if len(l1) == 0 {
		return res
	}
	res.Levels = append(res.Levels, NewLevel(1, l1))
	for k := 2; ; k++ {
		cands, err := Gen(SetsOf(res.Levels[k-2].Sets))
		if err != nil || len(cands) == 0 {
			return res
		}
		var lk []SetCount
		for i, c := range bruteForceCount(cands, db.Transactions) {
			if c >= minCount {
				lk = append(lk, SetCount{Set: cands[i], Count: c})
			}
		}
		if len(lk) == 0 {
			return res
		}
		res.Levels = append(res.Levels, NewLevel(k, lk))
	}
}

// keySet decodes an itemset encoded with itemset.Itemset.Key.
func keySet(key string) itemset.Itemset {
	s := make(itemset.Itemset, len(key)/4)
	for i := range s {
		s[i] = itemset.Item(binary.BigEndian.Uint32([]byte(key[4*i : 4*i+4])))
	}
	return s
}

func TestMineBruteForceAgrees(t *testing.T) {
	ht, err := Mine(classicDB(), 2.0/9.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ht.Equal(bruteForceMine(classicDB(), 2.0/9.0)) {
		t.Fatal("hash-tree and brute-force counting disagree")
	}
}

func TestMineMaxK(t *testing.T) {
	res, err := Mine(classicDB(), 2.0/9.0, Options{MaxK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxK() != 1 {
		t.Fatalf("MaxK = %d", res.MaxK())
	}
}

func TestMineHighSupportNothingFrequent(t *testing.T) {
	db := itemset.NewDB("sparse", [][]itemset.Item{{1}, {2}, {3}, {4}})
	res, err := Mine(db, 0.9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumFrequent() != 0 {
		t.Fatalf("frequent = %d", res.NumFrequent())
	}
}

func TestMineEmptyDB(t *testing.T) {
	if _, err := Mine(itemset.NewDB("e", nil), 0.5, Options{}); err == nil {
		t.Fatal("empty DB accepted")
	}
}

func TestResultAccessors(t *testing.T) {
	res, err := Mine(classicDB(), 2.0/9.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := res.Support(itemset.New(1, 2)); !ok || c != 4 {
		t.Fatalf("Support({1 2}) = %d, %v", c, ok)
	}
	if _, ok := res.Support(itemset.New(4, 5)); ok {
		t.Fatal("infrequent itemset reported frequent")
	}
	if _, ok := res.Support(itemset.New(1, 2, 3, 4, 5)); ok {
		t.Fatal("oversized itemset reported frequent")
	}
	if got := res.Frequent(0); got != nil {
		t.Fatal("Frequent(0) non-nil")
	}
	if got := res.Frequent(2); len(got) != 6 {
		t.Fatalf("Frequent(2) has %d sets", len(got))
	}
}

func TestResultEqual(t *testing.T) {
	a, _ := Mine(classicDB(), 2.0/9.0, Options{})
	b, _ := Mine(classicDB(), 2.0/9.0, Options{})
	if !a.Equal(b) {
		t.Fatal("identical runs not equal")
	}
	c, _ := Mine(classicDB(), 3.0/9.0, Options{})
	if a.Equal(c) {
		t.Fatal("different supports compare equal")
	}
}

// Property: monotonicity — every subset of a frequent itemset is frequent
// with at least the same support (checked on random small databases).
func TestMineDownwardClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]itemset.Item, rng.Intn(30)+5)
		for i := range rows {
			n := rng.Intn(6) + 1
			for j := 0; j < n; j++ {
				rows[i] = append(rows[i], itemset.Item(rng.Intn(10)))
			}
		}
		db := itemset.NewDB("rand", rows)
		res, err := Mine(db, 0.2, Options{})
		if err != nil {
			return false
		}
		for _, level := range res.Levels {
			for _, sc := range level.Sets {
				for i := 0; i < sc.Set.Len(); i++ {
					if sc.Set.Len() == 1 {
						continue
					}
					sub := sc.Set.Without(i)
					c, ok := res.Support(sub)
					if !ok || c < sc.Count {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: support counts reported by Mine equal exact subset counts.
func TestMineSupportsExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]itemset.Item, rng.Intn(20)+5)
		for i := range rows {
			n := rng.Intn(5) + 1
			for j := 0; j < n; j++ {
				rows[i] = append(rows[i], itemset.Item(rng.Intn(8)))
			}
		}
		db := itemset.NewDB("rand", rows)
		res, err := Mine(db, 0.25, Options{})
		if err != nil {
			return false
		}
		for _, level := range res.Levels {
			for _, sc := range level.Sets {
				exact := 0
				for _, tr := range db.Transactions {
					if tr.Items.ContainsAll(sc.Set) {
						exact++
					}
				}
				if exact != sc.Count || exact < res.MinSupport {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
