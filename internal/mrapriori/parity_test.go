package mrapriori

import (
	"math/rand"
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
// of countMapper to the sequential oracle across seeds: emitting one
// <candidate, local-count> record per split at cleanup must yield the
// frequent levels of counting every match individually, because the
// reducers just sum either way.
func TestCountMapperParityAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		db := randomParityDB(seed)
		support := 0.15
		oracle, err := apriori.Mine(db, support, apriori.Options{})
		if err != nil {
			t.Fatal(err)
		}
		runner, fs, path := stage(t, db)
		got, err := mineSim(runner, fs, path, Config{MinSupport: support})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !got.Result.Equal(oracle) {
			t.Fatalf("seed %d: MRApriori disagrees with oracle:\n got %v\nwant %v",
				seed, got.Result.All(), oracle.All())
		}
	}
}
