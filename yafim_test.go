package yafim

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func exampleDB() *DB {
	return NewDB("classic", [][]Item{
		{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3},
		{2, 3}, {1, 3}, {1, 2, 3, 5}, {1, 2, 3},
	})
}

// TestAllEnginesAgree is the repository's headline integration test: every
// engine — parallel YAFIM, parallel MapReduce, one-phase SON, RDD-Eclat and
// the sequential Apriori, Eclat and FP-Growth oracles — must produce
// byte-identical frequent itemsets.
func TestAllEnginesAgree(t *testing.T) {
	db := exampleDB()
	local := ClusterLocal()
	engines := Engines()
	if len(engines) != 7 {
		t.Fatalf("facade has %d engines, want 7", len(engines))
	}
	var first *Result
	for _, e := range engines {
		trace, err := Mine(db, 2.0/9.0, Options{Engine: e, Cluster: &local})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if first == nil {
			first = trace.Result
			if first.NumFrequent() != 13 {
				t.Fatalf("%v found %d itemsets, want 13", e, first.NumFrequent())
			}
			continue
		}
		if !trace.Result.Equal(first) {
			t.Errorf("%v disagrees with %v", e, engines[0])
		}
	}
}

func TestMineDefaultsToPaperCluster(t *testing.T) {
	trace, err := Mine(exampleDB(), 2.0/9.0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Result.MaxK() != 3 {
		t.Fatalf("MaxK = %d", trace.Result.MaxK())
	}
	if trace.TotalDuration() <= 0 {
		t.Fatal("no virtual time recorded")
	}
}

// TestMineMaxK holds every engine to the same MaxK contract, including the
// ones that always mine the whole lattice.
func TestMineMaxK(t *testing.T) {
	local := ClusterLocal()
	want, err := Mine(exampleDB(), 2.0/9.0, Options{Engine: EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	want.Result.Levels = want.Result.Levels[:2]
	for _, e := range Engines() {
		trace, err := Mine(exampleDB(), 2.0/9.0, Options{Engine: e, Cluster: &local, MaxK: 2})
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if !trace.Result.Equal(want.Result) {
			t.Errorf("%v with MaxK 2: got %v, want %v", e, trace.Result.All(), want.Result.All())
		}
	}
}

func TestMineUnknownEngine(t *testing.T) {
	for _, e := range []Engine{-1, Engine(len(Engines())), 42} {
		if _, err := Mine(exampleDB(), 0.5, Options{Engine: e}); err == nil {
			t.Errorf("%v accepted", e)
		}
		if _, ok := e.DefaultCluster(); ok {
			t.Errorf("%v has a default cluster", e)
		}
	}
}

func TestParseEngine(t *testing.T) {
	for _, e := range Engines() {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	for _, gone := range []string{"hive", "dhp", "partition", "toivonen", "aprioritid", "disteclat"} {
		if _, err := ParseEngine(gone); err == nil {
			t.Errorf("engine name %q parsed", gone)
		}
	}
}

// TestEngineDefaultClusters pins where each engine runs: the RDD engines on
// the Spark profile, the MapReduce engines on the Hadoop profile, and the
// oracles natively.
func TestEngineDefaultClusters(t *testing.T) {
	spark, hadoop := ClusterSpark(), ClusterHadoop()
	want := map[Engine]*Cluster{
		EngineYAFIM: &spark, EngineRDDEclat: &spark,
		EngineMapReduce: &hadoop, EngineSON: &hadoop,
		EngineSequential: nil, EngineEclat: nil, EngineFPGrowth: nil,
	}
	for _, e := range Engines() {
		got, ok := e.DefaultCluster()
		if w := want[e]; ok != (w != nil) || (ok && got != *w) {
			t.Errorf("%v.DefaultCluster() = %+v, %v", e, got, ok)
		}
	}
}

func TestGenerateRulesFacade(t *testing.T) {
	trace, err := Mine(exampleDB(), 2.0/9.0, Options{Engine: EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := GenerateRules(trace.Result, 0.5, exampleDB().Len())
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("no rules generated")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.dat")
	if err := SaveFile(exampleDB(), path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile("classic", path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != exampleDB().Len() {
		t.Fatalf("round trip lost transactions: %d", back.Len())
	}
	if _, err := LoadFile("missing", filepath.Join(dir, "nope.dat")); err == nil {
		t.Error("missing file loaded")
	}
	if err := SaveFile(exampleDB(), filepath.Join(dir, "no", "such", "dir.dat")); err == nil {
		t.Error("save into missing directory succeeded")
	}
	_ = os.Remove(path)
}

// TestDatRuleSameOnEveryPath mines one file through LoadFile and Eclat and
// through the distributed runtime. The file holds a blank line, a repeated
// item and CRLF line endings, and both paths must read it by the same rule:
// a blank line is an empty transaction, an item counts once per
// transaction and a carriage return separates like a space.
func TestDatRuleSameOnEveryPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.dat")
	content := "1 2 3\r\n\r\n1 1 2\r\n2 3\r\n1 3 3\r\n\r\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := LoadFile("mixed", path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Mine(db, 0.5, Options{Engine: EngineEclat})
	if err != nil {
		t.Fatal(err)
	}
	// Six transactions, so a count of 3: the three items, and no pair.
	if db.Len() != 6 || want.Result.NumFrequent() != 3 {
		t.Fatalf("LoadFile read %d transactions and Eclat found %d itemsets, want 6 and 3",
			db.Len(), want.Result.NumFrequent())
	}

	m, err := StartDistMaster(DistMasterOptions{Addr: "127.0.0.1:0", Tuning: DefaultDistTuning()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			_ = RunDistWorker(ctx, DistWorkerOptions{MasterURL: m.URL()})
		}()
	}
	got, err := MineDistributed(ctx, m, path, 0.5, Options{Tasks: 2})
	cancel()
	workers.Wait()
	if cerr := m.Close(); cerr != nil {
		t.Error(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !got.Result.Equal(want.Result) {
		t.Fatalf("MineDistributed found %v, LoadFile and Eclat %v", got.Result.All(), want.Result.All())
	}
}

func TestGeneratorsExposed(t *testing.T) {
	gens := map[string]func(float64, int64) (*DB, error){
		"mushroom": GenMushroom, "chess": GenChess, "pumsb": GenPumsbStar,
		"t10": GenT10I4D100K, "medical": GenMedical,
		"kosarak": GenKosarak, "retail": GenRetail,
	}
	for name, gen := range gens {
		db, err := gen(0.01, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if db.Len() == 0 {
			t.Errorf("%s: empty dataset", name)
		}
	}
}
