package dist_test

import (
	"os"
	"path/filepath"
	"testing"

	"yafim/internal/apriori"
	"yafim/internal/datagen"
	"yafim/internal/dataset"
	"yafim/internal/dist"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/sim"
)

// BenchmarkWorkerCachedMap measures a worker's map task on a later pass:
// mapreduce.MapTask of MRApriori's pass-2 count job over a split already in
// the block cache, the path TestCachedPassAllocsFlatInRows drives, without
// HTTP. The split is the first quarter of Chess (seed 2014), whose 37-item
// rows the hash tree walks, and the candidates are the pairs of its items
// frequent at 85%, chess-dist's support.
func BenchmarkWorkerCachedMap(b *testing.B) {
	db, err := datagen.ChessLike(1, 2014)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "chess.dat")
	if err := dataset.SaveFile(db, path); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	l1, err := apriori.Mine(db, 0.85, apriori.Options{MaxK: 1})
	if err != nil {
		b.Fatal(err)
	}
	cands, err := apriori.Gen(apriori.SetsOf(l1.Frequent(1)))
	if err != nil {
		b.Fatal(err)
	}
	spec := mrapriori.CountSpec("count", path, dist.ScratchDir+"/C2", cands, db.MinSupportCount(0.85), 2, 0)
	tasks, err := dist.BuildJob(spec.Type, spec.Params, spec.Cache)
	if err != nil {
		b.Fatal(err)
	}
	split := dist.Split{Path: path, Length: fi.Size() / 4}
	cache := dist.NewBlockCache(1 << 30)
	rows, _, err := cache.Get(split)
	if err != nil {
		b.Fatal(err)
	}
	read := func() ([]itemset.Itemset, int64, error) { return cache.Get(split) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := mapreduce.MapTask(0, tasks.NewMapper(), tasks.NewCombiner(), read, 2, new(sim.Ledger))
		if err != nil {
			b.Fatal(err)
		}
		if out.InputRecords != int64(len(rows)) {
			b.Fatalf("mapped %d records, want %d", out.InputRecords, len(rows))
		}
	}
	items := 0
	for _, r := range rows {
		items += len(r)
	}
	b.ReportMetric(float64(len(rows)), "records")
	b.ReportMetric(float64(items), "items")
	b.ReportMetric(float64(len(cands)), "cands")
}
