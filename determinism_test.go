package yafim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestSameSeedSameEverything widens seeded determinism from "same results"
// to "same everything": every parallel sim engine, mined twice per seed,
// must report identical per-pass stats (virtual durations and counter
// deltas included), identical full Counters and byte-identical journals.
// Each engine runs clean, and under DefaultChaosPlan when it honours
// Options.Chaos (SON ignores it).
func TestSameSeedSameEverything(t *testing.T) {
	local := ClusterLocal()
	engines := []struct {
		engine Engine
		chaos  bool
	}{
		{EngineYAFIM, true},
		{EngineMapReduce, true},
		{EngineSON, false},
		{EngineRDDEclat, true},
	}
	type run struct {
		passes   []PassStat
		counters Counters
		journal  []byte
		result   *Result
	}
	mine := func(t *testing.T, db *DB, opts Options) run {
		t.Helper()
		opts.Recorder = NewRecorder()
		trace, err := Mine(db, 0.35, opts)
		if err != nil {
			t.Fatal(err)
		}
		var journal bytes.Buffer
		if err := WriteJournal(&journal, opts.Recorder); err != nil {
			t.Fatal(err)
		}
		return run{trace.Passes, opts.Recorder.Counters(), journal.Bytes(), trace.Result}
	}
	for _, seed := range []int64{1, 7} {
		// Four tasks over 406 transactions keep SON's local threshold at 35
		// rows, far from the one-phase candidate blow-up.
		db, err := GenMushroom(0.05, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			for _, chaotic := range []bool{false, true} {
				if chaotic && !e.chaos {
					continue
				}
				t.Run(fmt.Sprintf("%v/seed=%d/chaos=%v", e.engine, seed, chaotic), func(t *testing.T) {
					opts := Options{Engine: e.engine, Cluster: &local, Tasks: 4}
					if chaotic {
						opts.Chaos = DefaultChaosPlan(seed)
					}
					a, b := mine(t, db, opts), mine(t, db, opts)
					if !b.result.Equal(a.result) {
						t.Fatal("results differ")
					}
					if chaotic && a.counters.TaskRetries == 0 {
						t.Fatal("the chaos plan injected no task failure")
					}
					if !reflect.DeepEqual(a.passes, b.passes) {
						t.Errorf("pass stats differ:\n%+v\n%+v", a.passes, b.passes)
					}
					if a.counters != b.counters {
						t.Errorf("counters differ:\n%+v\n%+v", a.counters, b.counters)
					}
					if !bytes.Equal(a.journal, b.journal) {
						t.Errorf("journals differ (%d vs %d bytes)", len(a.journal), len(b.journal))
					}
				})
			}
		}
	}
}
