package yafim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestSameSeedSameEverything widens seeded determinism from "same results"
// to "same everything": every parallel sim engine, mined twice per seed,
// must report identical per-pass stats (virtual durations and counter
// deltas included), identical full Counters and byte-identical journals.
// Each engine runs clean, under DefaultChaosPlan, and under that plan plus
// a crash of node 1 at 40% of the engine's clean total.
func TestSameSeedSameEverything(t *testing.T) {
	local := ClusterLocal()
	engines := []Engine{EngineYAFIM, EngineMapReduce, EngineRDDEclat}
	type run struct {
		passes   []PassStat
		total    time.Duration
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
		return run{trace.Passes, trace.TotalDuration(), opts.Recorder.Counters(), journal.Bytes(), trace.Result}
	}
	for _, seed := range []int64{1, 7} {
		db, err := GenMushroom(0.05, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			// The clean run times the crash; the crash-free chaos run is
			// what the crash run must differ from.
			var clean time.Duration
			var chaosPasses []PassStat
			for _, mode := range []string{"chaos=false", "chaos=true", "crash"} {
				chaotic := mode != "chaos=false"
				t.Run(fmt.Sprintf("%v/seed=%d/%s", e, seed, mode), func(t *testing.T) {
					opts := Options{Engine: e, Cluster: &local, Tasks: 4}
					if chaotic {
						opts.Chaos = DefaultChaosPlan(seed)
					}
					if mode == "crash" {
						if clean == 0 {
							t.Fatal("no clean run to time the crash from")
						}
						opts.Chaos.Crash = &NodeCrash{Node: 1, At: time.Duration(float64(clean) * 0.4)}
					}
					a, b := mine(t, db, opts), mine(t, db, opts)
					if !b.result.Equal(a.result) {
						t.Fatal("results differ")
					}
					if chaotic && a.counters.TaskRetries == 0 {
						t.Fatal("the chaos plan injected no task failure")
					}
					switch mode {
					case "chaos=false":
						clean = a.total
					case "chaos=true":
						chaosPasses = a.passes
					case "crash":
						if passDurations(a.passes) == passDurations(chaosPasses) {
							t.Error("pass durations match the crash-free chaos run: the crash never fired")
						}
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

// passDurations renders a run's per-pass virtual durations.
func passDurations(passes []PassStat) string {
	var b bytes.Buffer
	for _, p := range passes {
		fmt.Fprintf(&b, "%d:%v ", p.K, p.Duration)
	}
	return b.String()
}
