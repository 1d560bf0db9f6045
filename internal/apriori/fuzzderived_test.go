package apriori

import (
	"math/rand"
	"testing"

	"yafim/internal/itemset"
)

func TestFuzzMaximalClosed(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nTx := 1 + rng.Intn(25)
		nItems := 1 + rng.Intn(8)
		rows := make([][]itemset.Item, nTx)
		for i := range rows {
			l := rng.Intn(nItems + 1)
			for j := 0; j < l; j++ {
				rows[i] = append(rows[i], itemset.Item(rng.Intn(nItems)))
			}
		}
		db := itemset.NewDB("f", rows)
		for _, sup := range []float64{0.1, 0.4} {
			res, err := Mine(db, sup, Options{})
			if err != nil {
				t.Fatal(err)
			}
			all := res.All()
			// brute reference over all frequent sets
			isFrequent := func(s itemset.Itemset) (int, bool) {
				c, ok := all[s.Key()]
				return c, ok
			}
			wantMax := map[string]bool{}
			wantClosed := map[string]bool{}
			for key, cnt := range all {
				s := keySet(key)
				maximal, closed := true, true
				// check all supersets by one item
				for it := 0; it < db.NumItems(); it++ {
					if s.Contains(itemset.Item(it)) {
						continue
					}
					sup := itemset.New(append(s.Clone(), itemset.Item(it))...)
					if c, ok := isFrequent(sup); ok {
						maximal = false
						if c == cnt {
							closed = false
						}
					}
				}
				if maximal {
					wantMax[key] = true
				}
				if closed {
					wantClosed[key] = true
				}
			}
			gotMax := res.Maximal()
			if len(gotMax) != len(wantMax) {
				t.Fatalf("seed=%d sup=%v: maximal count got %d want %d", seed, sup, len(gotMax), len(wantMax))
			}
			for _, sc := range gotMax {
				if !wantMax[sc.Set.Key()] {
					t.Fatalf("seed=%d sup=%v: %v wrongly maximal", seed, sup, sc.Set)
				}
			}
			gotClosed := res.Closed()
			if len(gotClosed) != len(wantClosed) {
				t.Fatalf("seed=%d sup=%v: closed count got %d want %d", seed, sup, len(gotClosed), len(wantClosed))
			}
			for _, sc := range gotClosed {
				if !wantClosed[sc.Set.Key()] {
					t.Fatalf("seed=%d sup=%v: %v wrongly closed", seed, sup, sc.Set)
				}
			}
		}
	}
}
