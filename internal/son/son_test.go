package son

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"yafim/internal/apriori"
	"yafim/internal/cluster"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
)

func classicDB() *itemset.DB {
	return itemset.NewDB("classic", [][]itemset.Item{
		{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3},
		{2, 3}, {1, 3}, {1, 2, 3, 5}, {1, 2, 3},
	})
}

func stage(t *testing.T, db *itemset.DB, blockSize int64) (*mapreduce.Runner, *dfs.FileSystem, string) {
	t.Helper()
	fs := dfs.New(4, dfs.WithBlockSize(blockSize), dfs.WithReplication(2))
	path := "/data/" + db.Name + ".dat"
	if _, err := dataset.Stage(fs, path, db); err != nil {
		t.Fatal(err)
	}
	runner, err := mapreduce.NewRunner(fs, cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	return runner, fs, path
}

func TestMineMatchesSequentialOracle(t *testing.T) {
	// Small blocks force several local-mining splits, which is where SON's
	// completeness argument actually gets exercised.
	for _, blockSize := range []int64{16, 64, 1 << 20} {
		runner, fs, path := stage(t, classicDB(), blockSize)
		got, err := Mine(runner, fs, path, "/work", Config{MinSupport: 2.0 / 9.0})
		if err != nil {
			t.Fatal(err)
		}
		want, err := apriori.Mine(classicDB(), 2.0/9.0, apriori.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Result.Equal(want) {
			t.Fatalf("blockSize=%d: SON disagrees with oracle:\n got %v\nwant %v",
				blockSize, got.Result.All(), want.All())
		}
	}
}

func TestMineRunsExactlyTwoJobs(t *testing.T) {
	runner, fs, path := stage(t, classicDB(), 32)
	got, err := Mine(runner, fs, path, "/work", Config{MinSupport: 2.0 / 9.0})
	if err != nil {
		t.Fatal(err)
	}
	if jobs := len(runner.Reports()); jobs != 2 {
		t.Fatalf("SON ran %d jobs, want 2", jobs)
	}
	if len(got.Passes) != 2 {
		t.Fatalf("trace has %d passes, want 2", len(got.Passes))
	}
}

func TestMineInvalidInputs(t *testing.T) {
	runner, fs, path := stage(t, classicDB(), 32)
	if _, err := Mine(runner, fs, path, "/work", Config{MinSupport: 0}); err == nil {
		t.Error("zero support accepted")
	}
	if _, err := Mine(runner, fs, "/missing", "/work", Config{MinSupport: 0.5}); err == nil {
		t.Error("missing input accepted")
	}
	bad := dfs.New(2)
	if err := bad.WriteFile("/bad.dat", []byte("1 nope\n"), nil); err != nil {
		t.Fatal(err)
	}
	badRunner, err := mapreduce.NewRunner(bad, cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(badRunner, bad, "/bad.dat", "/work", Config{MinSupport: 0.5}); err == nil {
		t.Error("malformed transaction accepted")
	}
}

func TestMineNothingFrequent(t *testing.T) {
	db := itemset.NewDB("sparse", [][]itemset.Item{{1}, {2}, {3}, {4}})
	runner, fs, path := stage(t, db, 1<<20)
	got, err := Mine(runner, fs, path, "/work", Config{MinSupport: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.NumFrequent() != 0 {
		t.Fatalf("frequent = %d", got.Result.NumFrequent())
	}
}

// Property: SON agrees with sequential Apriori on random databases and
// split granularities — the pigeonhole completeness argument, fuzzed.
func TestMineMatchesOracleProperty(t *testing.T) {
	f := func(seed int64, sup8, bs8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sup := 0.15 + float64(sup8%7)/10.0
		blockSize := int64(bs8%64) + 8
		rows := make([][]itemset.Item, rng.Intn(20)+5)
		for i := range rows {
			n := rng.Intn(5) + 1
			for j := 0; j < n; j++ {
				rows[i] = append(rows[i], itemset.Item(rng.Intn(8)))
			}
		}
		db := itemset.NewDB("rand", rows)
		fs := dfs.New(3, dfs.WithBlockSize(blockSize))
		if _, err := dataset.Stage(fs, "/r.dat", db); err != nil {
			return false
		}
		runner, err := mapreduce.NewRunner(fs, cluster.Local())
		if err != nil {
			return false
		}
		got, err := Mine(runner, fs, "/r.dat", "/work", Config{MinSupport: sup})
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

// TestSetKeyRoundTrip checks the text form SON moves itemsets in: the keys
// the local-mining job emits and the candidate file the count job reads.
func TestSetKeyRoundTrip(t *testing.T) {
	s := itemset.New(5, 1, 300)
	back, err := mrapriori.ParseSet(mrapriori.SetKey(s))
	if err != nil || !back.Equal(s) {
		t.Fatalf("round trip %v -> %v (%v)", s, back, err)
	}
	line := strings.TrimSuffix(string(mrapriori.EncodeCandidates([][]itemset.Itemset{{s}})), "\n")
	back, err = mrapriori.ParseSet(line)
	if err != nil || !back.Equal(s) {
		t.Fatalf("candidate file round trip %v -> %v (%v)", s, back, err)
	}
}
