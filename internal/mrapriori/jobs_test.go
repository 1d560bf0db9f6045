package mrapriori

import (
	"testing"

	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/sim"
)

// TestEveryMapTaskChargedTreeConstruction checks that building a count job
// once leaves the cost model as it was: every map task of the job is
// charged the construction of every hash tree, one op per item of every
// candidate, as a Hadoop mapper building its trees in its own setup is.
// Over an empty split that is the task's whole CPU charge.
func TestEveryMapTaskChargedTreeConstruction(t *testing.T) {
	batch := [][]itemset.Itemset{
		{{1, 2}, {1, 3}, {2, 3}, {2, 4}},
		{{1, 2, 3}},
	}
	spec := CountSpec("count", "/in", "/work/cands", batch, 1, 2, 0)
	tasks, err := newCountJob(spec.Params, spec.Cache)
	if err != nil {
		t.Fatal(err)
	}
	const want = 4*2 + 1*3
	empty := func() ([]mapreduce.Record, error) { return nil, nil }
	for task := 0; task < 3; task++ {
		led := new(sim.Ledger)
		if _, err := mapreduce.MapTask(task, tasks.NewMapper(), tasks.NewCombiner(), empty, 2, led); err != nil {
			t.Fatal(err)
		}
		if got := led.Total().CPUOps; got != want {
			t.Fatalf("map task %d charged %v CPU ops over an empty split, want the trees' %v", task, got, want)
		}
	}
}

// TestCountJobRejectsBadInput checks that a count job fails to build, not
// to run, when its params or candidate file are unusable.
func TestCountJobRejectsBadInput(t *testing.T) {
	spec := CountSpec("count", "/in", "/work/cands", [][]itemset.Itemset{{{1, 2}}}, 1, 2, 0)
	for name, c := range map[string]struct {
		params []byte
		cache  mapreduce.CacheFiles
	}{
		"bad params":    {[]byte("{"), spec.Cache},
		"no cache path": {[]byte(`{"min_count":1}`), spec.Cache},
		"blob missing":  {spec.Params, nil},
		"blob empty":    {spec.Params, mapreduce.CacheFiles{"/work/cands": nil}},
		"bad candidate": {spec.Params, mapreduce.CacheFiles{"/work/cands": []byte("1 x\n")}},
	} {
		if _, err := newCountJob(c.params, c.cache); err == nil {
			t.Errorf("%s: count job built", name)
		}
	}
}
