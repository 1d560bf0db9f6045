package mrapriori

import (
	"math/rand"
	"reflect"
	"testing"

	"yafim/internal/apriori"
	"yafim/internal/itemset"
)

// randomParityDB builds a deterministic random database dense enough for
// several counting passes.
func randomParityDB(seed int64) *itemset.DB {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]itemset.Item, rng.Intn(50)+30)
	universe := rng.Intn(12) + 8
	for i := range rows {
		row := make([]itemset.Item, rng.Intn(6)+2)
		for j := range row {
			row[j] = itemset.Item(rng.Intn(universe) + 1)
		}
		rows[i] = row
	}
	return itemset.NewDB("parity", rows)
}

// TestCountMapperParityAcrossSeeds locks the in-mapper-combining rewrite
// of countMapper to the sequential oracle across seeds and all pass
// scheduling variants: emitting one <candidate, local-count> record per
// split at cleanup must yield byte-identical frequent levels to counting
// every match individually, because the reducers just sum either way.
func TestCountMapperParityAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		db := randomParityDB(seed)
		support := 0.15
		oracle, err := apriori.Mine(db, support, apriori.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var results []*apriori.Result
		for _, v := range []Variant{SPC, FPC, DPC} {
			runner, fs, path := stage(t, db)
			got, err := mineSim(runner, fs, path, Config{MinSupport: support, Variant: v})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, v, err)
			}
			if !got.Result.Equal(oracle) {
				t.Fatalf("seed %d %v: MRApriori disagrees with oracle:\n got %v\nwant %v",
					seed, v, got.Result.All(), oracle.All())
			}
			results = append(results, got.Result)
		}
		// The three variants batch candidates differently but must mine the
		// exact same levels.
		for i := 1; i < len(results); i++ {
			if !reflect.DeepEqual(results[0].Levels, results[i].Levels) {
				t.Fatalf("seed %d: variant results diverge", seed)
			}
		}
	}
}
