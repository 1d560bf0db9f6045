package yafim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"yafim/internal/apriori"
	"yafim/internal/cluster"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/rdd"
)

func classicDB() *itemset.DB {
	return itemset.NewDB("classic", [][]itemset.Item{
		{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3},
		{2, 3}, {1, 3}, {1, 2, 3, 5}, {1, 2, 3},
	})
}

// stage writes db into a fresh DFS with small blocks (several partitions)
// and returns a ready context.
func stage(t *testing.T, db *itemset.DB, opts ...rdd.Option) (*rdd.Context, *dfs.FileSystem, string) {
	t.Helper()
	fs := dfs.New(4, dfs.WithBlockSize(32), dfs.WithReplication(2))
	path := "/data/" + db.Name + ".dat"
	if _, err := dataset.Stage(fs, path, db); err != nil {
		t.Fatal(err)
	}
	ctx, err := rdd.NewContext(cluster.Local(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, fs, path
}

func TestMineMatchesSequentialOracle(t *testing.T) {
	ctx, fs, path := stage(t, classicDB())
	got, err := Mine(ctx, fs, path, Config{MinSupport: 2.0 / 9.0})
	if err != nil {
		t.Fatal(err)
	}
	want, err := apriori.Mine(classicDB(), 2.0/9.0, apriori.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Result.Equal(want) {
		t.Fatalf("YAFIM disagrees with oracle:\n got %v\nwant %v", got.Result.All(), want.All())
	}
}

func TestMinePassStats(t *testing.T) {
	ctx, fs, path := stage(t, classicDB())
	got, err := Mine(ctx, fs, path, Config{MinSupport: 2.0 / 9.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Passes) < 3 {
		t.Fatalf("passes = %+v", got.Passes)
	}
	for i, p := range got.Passes {
		if p.K != i+1 {
			t.Errorf("pass %d has K=%d", i, p.K)
		}
		if p.Duration <= 0 {
			t.Errorf("pass %d has non-positive duration %v", i, p.Duration)
		}
	}
	if got.TotalDuration() <= 0 {
		t.Fatal("total duration not positive")
	}
	// Pass 2 counts candidates C2 = C(5,2) = 10 in the classic example.
	if got.Passes[1].Candidates != 10 {
		t.Errorf("pass 2 candidates = %d, want 10", got.Passes[1].Candidates)
	}
}

func TestMineMaxK(t *testing.T) {
	ctx, fs, path := stage(t, classicDB())
	got, err := Mine(ctx, fs, path, Config{MinSupport: 2.0 / 9.0, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.MaxK() != 2 {
		t.Fatalf("MaxK = %d", got.Result.MaxK())
	}
}

func TestMineAblationsStillExact(t *testing.T) {
	want, err := apriori.Mine(classicDB(), 2.0/9.0, apriori.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"no-cache":    {MinSupport: 2.0 / 9.0, DisableCache: true},
		"brute-force": {MinSupport: 2.0 / 9.0, BruteForceMatching: true},
	} {
		ctx, fs, path := stage(t, classicDB())
		got, err := Mine(ctx, fs, path, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Result.Equal(want) {
			t.Errorf("%s: results differ from oracle", name)
		}
	}
	// The naive-shipping ablation changes time, never results.
	ctx, fs, path := stage(t, classicDB(), rdd.WithoutBroadcast())
	got, err := Mine(ctx, fs, path, Config{MinSupport: 2.0 / 9.0})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Result.Equal(want) {
		t.Error("naive shipping changed the mining result")
	}
}

func TestCacheAblationCostsDiskReads(t *testing.T) {
	run := func(disable bool) int64 {
		ctx, fs, path := stage(t, classicDB())
		_, err := Mine(ctx, fs, path, Config{MinSupport: 2.0 / 9.0, DisableCache: disable})
		if err != nil {
			t.Fatal(err)
		}
		var disk int64
		for _, r := range ctx.Reports() {
			disk += r.TotalCost().DiskRead
		}
		return disk
	}
	cached, uncached := run(false), run(true)
	if uncached <= cached {
		t.Fatalf("disabling the cache should re-read input every pass: %d vs %d", uncached, cached)
	}
}

func TestMineInvalidInputs(t *testing.T) {
	ctx, fs, path := stage(t, classicDB())
	if _, err := Mine(ctx, fs, path, Config{MinSupport: 0}); err == nil {
		t.Error("zero support accepted")
	}
	if _, err := Mine(ctx, fs, path, Config{MinSupport: 1.5}); err == nil {
		t.Error("support > 1 accepted")
	}
	if _, err := Mine(ctx, fs, "/missing", Config{MinSupport: 0.5}); err == nil {
		t.Error("missing input accepted")
	}
	bad := dfs.New(2)
	if err := bad.WriteFile("/bad.dat", []byte("1 2 x\n"), nil); err != nil {
		t.Fatal(err)
	}
	ctxB, err := rdd.NewContext(cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(ctxB, bad, "/bad.dat", Config{MinSupport: 0.5}); err == nil {
		t.Error("malformed transaction accepted")
	}
}

func TestMineEmptyFile(t *testing.T) {
	fs := dfs.New(2)
	if err := fs.WriteFile("/empty.dat", nil, nil); err != nil {
		t.Fatal(err)
	}
	ctx, err := rdd.NewContext(cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(ctx, fs, "/empty.dat", Config{MinSupport: 0.5}); err == nil {
		t.Error("empty input accepted")
	}
}

func TestSurvivesInjectedTaskFailure(t *testing.T) {
	ctx, fs, path := stage(t, classicDB())
	// Fail an early RDD id (the textFile or transactions RDD) a few times;
	// the scheduler must retry and the result must stay exact.
	ctx.FailTaskOnce(1, 0, 2)
	got, err := Mine(ctx, fs, path, Config{MinSupport: 2.0 / 9.0})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := apriori.Mine(classicDB(), 2.0/9.0, apriori.Options{})
	if !got.Result.Equal(want) {
		t.Fatal("result corrupted by injected failure")
	}
}

// Property: YAFIM equals the sequential oracle on random databases and
// supports — the paper's correctness claim, continuously fuzzed.
func TestMineMatchesOracleProperty(t *testing.T) {
	f := func(seed int64, sup8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sup := 0.15 + float64(sup8%7)/10.0
		rows := make([][]itemset.Item, rng.Intn(20)+5)
		for i := range rows {
			n := rng.Intn(5) + 1
			for j := 0; j < n; j++ {
				rows[i] = append(rows[i], itemset.Item(rng.Intn(8)))
			}
		}
		db := itemset.NewDB("rand", rows)
		fs := dfs.New(3, dfs.WithBlockSize(16))
		if _, err := dataset.Stage(fs, "/r.dat", db); err != nil {
			return false
		}
		ctx, err := rdd.NewContext(cluster.Local())
		if err != nil {
			return false
		}
		got, err := Mine(ctx, fs, "/r.dat", Config{MinSupport: sup})
		if err != nil {
			return false
		}
		want, err := apriori.Mine(db, sup, apriori.Options{})
		if err != nil {
			return false
		}
		return got.Result.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
