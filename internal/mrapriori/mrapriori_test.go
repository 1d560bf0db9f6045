package mrapriori

import (
	"math/rand"
	"testing"
	"testing/quick"

	"yafim/internal/apriori"
	"yafim/internal/cluster"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
)

func classicDB() *itemset.DB {
	return itemset.NewDB("classic", [][]itemset.Item{
		{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3},
		{2, 3}, {1, 3}, {1, 2, 3, 5}, {1, 2, 3},
	})
}

func stage(t *testing.T, db *itemset.DB) (*mapreduce.Runner, *dfs.FileSystem, string) {
	t.Helper()
	fs := dfs.New(4, dfs.WithBlockSize(32), dfs.WithReplication(2))
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
	for _, v := range []Variant{SPC, FPC, DPC} {
		t.Run(v.String(), func(t *testing.T) {
			runner, fs, path := stage(t, classicDB())
			got, err := Mine(runner, fs, path, "/work", Config{
				MinSupport: 2.0 / 9.0, Variant: v,
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := apriori.Mine(classicDB(), 2.0/9.0, apriori.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Result.Equal(want) {
				t.Fatalf("%v disagrees with oracle:\n got %v\nwant %v",
					v, got.Result.All(), want.All())
			}
		})
	}
}

func TestSPCRunsOneJobPerPass(t *testing.T) {
	runner, fs, path := stage(t, classicDB())
	got, err := Mine(runner, fs, path, "/work", Config{MinSupport: 2.0 / 9.0})
	if err != nil {
		t.Fatal(err)
	}
	// The classic example has 3 frequent levels; with SPC the driver needs
	// one job per counted level plus the final pass that comes back empty.
	jobs := len(runner.Reports())
	if jobs != len(got.Passes) {
		t.Fatalf("jobs = %d, passes = %d", jobs, len(got.Passes))
	}
	for i, p := range got.Passes {
		if p.K != i+1 {
			t.Errorf("pass %d has K=%d", i, p.K)
		}
		if p.Duration < runner.Config().JobStartup {
			t.Errorf("pass %d duration %v below per-job startup", i, p.Duration)
		}
	}
}

func TestFPCUsesFewerJobs(t *testing.T) {
	runnerSPC, fsS, pathS := stage(t, classicDB())
	if _, err := Mine(runnerSPC, fsS, pathS, "/work", Config{MinSupport: 2.0 / 9.0, Variant: SPC}); err != nil {
		t.Fatal(err)
	}
	runnerFPC, fsF, pathF := stage(t, classicDB())
	if _, err := Mine(runnerFPC, fsF, pathF, "/work", Config{MinSupport: 2.0 / 9.0, Variant: FPC, FPCPasses: 3}); err != nil {
		t.Fatal(err)
	}
	if len(runnerFPC.Reports()) >= len(runnerSPC.Reports()) {
		t.Fatalf("FPC jobs = %d, SPC jobs = %d", len(runnerFPC.Reports()), len(runnerSPC.Reports()))
	}
}

func TestDPCBudgetForcesSplit(t *testing.T) {
	// A budget of 1 candidate degenerates DPC to SPC-like batching.
	runner, fs, path := stage(t, classicDB())
	got, err := Mine(runner, fs, path, "/work", Config{
		MinSupport: 2.0 / 9.0, Variant: DPC, DPCBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := apriori.Mine(classicDB(), 2.0/9.0, apriori.Options{})
	if !got.Result.Equal(want) {
		t.Fatal("DPC with tiny budget lost results")
	}
}

func TestMineInvalidInputs(t *testing.T) {
	runner, fs, path := stage(t, classicDB())
	if _, err := Mine(runner, fs, path, "/work", Config{MinSupport: 0}); err == nil {
		t.Error("zero support accepted")
	}
	if _, err := Mine(runner, fs, "/missing", "/work", Config{MinSupport: 0.5}); err == nil {
		t.Error("missing input accepted")
	}
	if _, err := Mine(runner, fs, path, "/work", Config{MinSupport: 0.5, Variant: Variant(9)}); err == nil {
		t.Error("unknown variant accepted")
	}
	bad := dfs.New(2)
	if err := bad.WriteFile("/bad.dat", []byte("1 oops\n"), nil); err != nil {
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

func TestMineMaxK(t *testing.T) {
	runner, fs, path := stage(t, classicDB())
	got, err := Mine(runner, fs, path, "/work", Config{MinSupport: 2.0 / 9.0, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.MaxK() != 2 {
		t.Fatalf("MaxK = %d", got.Result.MaxK())
	}
}

func TestSetKeyRoundTrip(t *testing.T) {
	for _, s := range []itemset.Itemset{itemset.New(1), itemset.New(3, 1, 4), itemset.New(100, 2000)} {
		back, err := ParseSet(SetKey(s))
		if err != nil {
			t.Fatalf("ParseSet(%q): %v", SetKey(s), err)
		}
		if !back.Equal(s) {
			t.Fatalf("round trip %v -> %v", s, back)
		}
	}
	if _, err := ParseSet(""); err == nil {
		t.Error("empty set text accepted")
	}
	if _, err := ParseSet("1 x"); err == nil {
		t.Error("bad item accepted")
	}
}

// An empty transaction is a valid record: it counts towards the input size
// and contains no candidate, in every counting pass.
func TestMineCountsEmptyTransactions(t *testing.T) {
	db := itemset.NewDB("withempty", [][]itemset.Item{
		{1, 2}, {}, {1, 2, 3}, {2, 3}, {}, {1, 3}, {1, 2, 3},
	})
	want, err := apriori.Mine(db, 0.25, apriori.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{SPC, FPC, DPC} {
		runner, fs, path := stage(t, db)
		got, err := Mine(runner, fs, path, "/work", Config{MinSupport: 0.25, Variant: v})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !got.Result.Equal(want) {
			t.Fatalf("%v: got %v, want %v", v, got.Result.All(), want.All())
		}
	}
}

// Property: every variant agrees with the sequential oracle on random
// inputs — and therefore all variants agree with each other.
func TestVariantsMatchOracleProperty(t *testing.T) {
	f := func(seed int64, sup8, v8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sup := 0.15 + float64(sup8%7)/10.0
		variant := Variant(v8 % 3)
		rows := make([][]itemset.Item, rng.Intn(15)+5)
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
		runner, err := mapreduce.NewRunner(fs, cluster.Local())
		if err != nil {
			return false
		}
		got, err := Mine(runner, fs, "/r.dat", "/work", Config{
			MinSupport: sup, Variant: variant, FPCPasses: 2, DPCBudget: 10,
		})
		if err != nil {
			return false
		}
		want, err := apriori.Mine(db, sup, apriori.Options{})
		if err != nil {
			return false
		}
		return got.Result.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
