package apriori

import (
	"math/rand"
	"testing"
	"testing/quick"

	"yafim/internal/itemset"
)

func TestMaximalClassicExample(t *testing.T) {
	res, err := Mine(classicDB(), 2.0/9.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	maximal := res.Maximal()
	// Frequent sets: 13 total; maximal are {1,2,3}, {1,2,5}, {2,4}.
	want := map[string]bool{
		itemset.New(1, 2, 3).Key(): true,
		itemset.New(1, 2, 5).Key(): true,
		itemset.New(2, 4).Key():    true,
	}
	if len(maximal) != len(want) {
		t.Fatalf("maximal = %v", maximal)
	}
	for _, sc := range maximal {
		if !want[sc.Set.Key()] {
			t.Errorf("unexpected maximal itemset %v", sc.Set)
		}
	}
}

func TestClosedClassicExample(t *testing.T) {
	res, err := Mine(classicDB(), 2.0/9.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	closed := res.Closed()
	closedKeys := map[string]int{}
	for _, sc := range closed {
		closedKeys[sc.Set.Key()] = sc.Count
	}
	// {5} has support 2, equal to its superset {1,5}... and ultimately
	// {1,2,5}; so {5} is frequent but not closed.
	if _, ok := closedKeys[itemset.New(5).Key()]; ok {
		t.Error("{5} reported closed despite {1 2 5} sharing its support")
	}
	// {2} (support 7) has no superset with support 7: closed.
	if c, ok := closedKeys[itemset.New(2).Key()]; !ok || c != 7 {
		t.Errorf("{2} missing from closed sets (%v)", closedKeys)
	}
	// Every maximal itemset is closed.
	for _, m := range res.Maximal() {
		if _, ok := closedKeys[m.Set.Key()]; !ok {
			t.Errorf("maximal %v not closed", m.Set)
		}
	}
}

func TestDerivedEmptyResult(t *testing.T) {
	r := &Result{}
	if len(r.Maximal()) != 0 || len(r.Closed()) != 0 {
		t.Fatal("empty result produced derived itemsets")
	}
}

// Property: Maximal and Closed agree with their brute-force definitions on
// random databases, and maximal ⊆ closed ⊆ frequent.
func TestDerivedDefinitionsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]itemset.Item, rng.Intn(20)+5)
		for i := range rows {
			n := rng.Intn(5) + 1
			for j := 0; j < n; j++ {
				rows[i] = append(rows[i], itemset.Item(rng.Intn(7)))
			}
		}
		db := itemset.NewDB("rand", rows)
		res, err := Mine(db, 0.25, Options{})
		if err != nil {
			return false
		}
		all := res.All()
		isFrequent := func(key string) bool { _, ok := all[key]; return ok }

		// Brute-force maximal/closed over all frequent sets.
		bruteMaximal := map[string]bool{}
		bruteClosed := map[string]bool{}
		for key, count := range all {
			set := keySet(key)
			maximal, closed := true, true
			for otherKey, otherCount := range all {
				other := keySet(otherKey)
				if other.Len() <= set.Len() || !other.ContainsAll(set) {
					continue
				}
				maximal = false
				if otherCount == count {
					closed = false
				}
			}
			if maximal {
				bruteMaximal[key] = true
			}
			if closed {
				bruteClosed[key] = true
			}
		}

		gotMaximal := map[string]bool{}
		for _, sc := range res.Maximal() {
			gotMaximal[sc.Set.Key()] = true
		}
		gotClosed := map[string]bool{}
		for _, sc := range res.Closed() {
			gotClosed[sc.Set.Key()] = true
		}
		if len(gotMaximal) != len(bruteMaximal) || len(gotClosed) != len(bruteClosed) {
			return false
		}
		for k := range bruteMaximal {
			if !gotMaximal[k] {
				return false
			}
		}
		for k := range bruteClosed {
			if !gotClosed[k] || !isFrequent(k) {
				return false
			}
		}
		// maximal ⊆ closed.
		for k := range gotMaximal {
			if !gotClosed[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
