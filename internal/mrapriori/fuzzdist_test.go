package mrapriori

import (
	"fmt"
	"math/rand"
	"testing"

	"yafim/internal/apriori"
	"yafim/internal/cluster"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
)

func TestFuzzMRAprioriVariants(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nTx := 1 + rng.Intn(30)
		nItems := 1 + rng.Intn(10)
		rows := make([][]itemset.Item, nTx)
		for i := range rows {
			l := 1 + rng.Intn(nItems)
			for j := 0; j < l; j++ {
				rows[i] = append(rows[i], itemset.Item(rng.Intn(nItems)))
			}
		}
		db := itemset.NewDB(fmt.Sprintf("f%d", seed), rows)
		for _, sup := range []float64{0.1, 0.3, 0.6} {
			want, err := apriori.Mine(db, sup, apriori.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fs := dfs.New(4, dfs.WithBlockSize(24), dfs.WithReplication(2))
			path := "/data/x.dat"
			if _, err := dataset.Stage(fs, path, db); err != nil {
				t.Fatal(err)
			}
			runner, err := mapreduce.NewRunner(fs, cluster.Local())
			if err != nil {
				t.Fatal(err)
			}
			got, err := mineSim(runner, fs, path, Config{MinSupport: sup})
			if err != nil {
				t.Fatalf("seed=%d sup=%v: %v", seed, sup, err)
			}
			if !got.Result.Equal(want) {
				t.Errorf("seed=%d sup=%v: disagrees: got %d want %d", seed, sup, got.Result.NumFrequent(), want.NumFrequent())
			}
		}
	}
}
