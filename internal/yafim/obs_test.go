package yafim

import (
	"bytes"
	"testing"

	"yafim/internal/apriori"
	"yafim/internal/obs"
	"yafim/internal/rdd"
)

// mineObserved runs Mine on a fresh classic database with a fresh recorder
// attached to both the RDD context and the DFS.
func mineObserved(t *testing.T, cfg Config, opts ...rdd.Option) (*obs.Recorder, *apriori.Trace) {
	t.Helper()
	rec := obs.New()
	ctx, fs, path := stage(t, classicDB(), append(opts, rdd.WithRecorder(rec))...)
	fs.SetRecorder(rec)
	cfg.MinSupport = 2.0 / 9.0
	trace, err := Mine(ctx, fs, path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec, trace
}

func TestRecorderCacheCountersPerPass(t *testing.T) {
	rec, trace := mineObserved(t, Config{})
	c := rec.Counters()
	if c.CacheHits == 0 {
		t.Fatalf("cached run recorded no cache hits: %+v", c)
	}
	if c.DFSReadBytes == 0 {
		t.Fatalf("run recorded no DFS reads: %+v", c)
	}
	if len(trace.Passes) < 2 {
		t.Fatalf("classic db mined in %d passes", len(trace.Passes))
	}
	// Pass 1 computes the transactions RDD (all misses); every later pass
	// reuses the cached partitions.
	if trace.Passes[0].Counters.CacheMisses == 0 {
		t.Fatalf("pass 1 counters = %+v, want cache misses", trace.Passes[0].Counters)
	}
	for _, p := range trace.Passes[1:] {
		if p.Counters.CacheHits == 0 {
			t.Fatalf("pass %d counters = %+v, want cache hits", p.K, p.Counters)
		}
		if p.Counters.LineageRecomputes != 0 {
			t.Fatalf("pass %d recomputed despite cache: %+v", p.K, p.Counters)
		}
	}
	// Per-pass deltas must sum to the run totals.
	var sum obs.Counters
	for _, p := range trace.Passes {
		sum.CacheHits += p.Counters.CacheHits
		sum.CacheMisses += p.Counters.CacheMisses
	}
	if sum.CacheHits != c.CacheHits || sum.CacheMisses != c.CacheMisses {
		t.Fatalf("per-pass deltas (%+v) do not sum to totals (%+v)", sum, c)
	}
}

func TestRecorderDisableCacheRecomputes(t *testing.T) {
	rec, trace := mineObserved(t, Config{DisableCache: true})
	c := rec.Counters()
	if c.CacheHits != 0 || c.CacheMisses != 0 {
		t.Fatalf("cache counters active with caching disabled: %+v", c)
	}
	if len(trace.Passes) < 2 {
		t.Fatalf("classic db mined in %d passes", len(trace.Passes))
	}
	if c.LineageRecomputes == 0 {
		t.Fatal("uncached multi-pass run recorded no lineage recomputes")
	}
}

func TestRecorderBroadcastVsNaiveShipping(t *testing.T) {
	rec, _ := mineObserved(t, Config{})
	c := rec.Counters()
	if c.BroadcastBytes == 0 {
		t.Fatalf("broadcast mode recorded no broadcast bytes: %+v", c)
	}
	if c.NaiveShipBytes != 0 {
		t.Fatalf("broadcast mode shipped naively: %+v", c)
	}

	recN, _ := mineObserved(t, Config{}, rdd.WithoutBroadcast())
	cN := recN.Counters()
	if cN.NaiveShipBytes == 0 {
		t.Fatalf("naive mode recorded no shipped bytes: %+v", cN)
	}
	if cN.BroadcastBytes != 0 {
		t.Fatalf("naive mode recorded broadcast bytes: %+v", cN)
	}
}

// TestRecorderSpansCoverPasses checks the span tree the engine emits: jobs
// tagged with the mining pass, rdd as the engine, stages with tasks.
func TestRecorderSpansCoverPasses(t *testing.T) {
	rec, trace := mineObserved(t, Config{})
	jobs := rec.Jobs()
	if len(jobs) == 0 {
		t.Fatal("no job spans recorded")
	}
	maxPass := 0
	for _, j := range jobs {
		if j.Engine != "rdd" {
			t.Fatalf("job engine = %q", j.Engine)
		}
		if j.Pass < 1 || j.Pass > len(trace.Passes) {
			t.Fatalf("job pass %d outside [1,%d]", j.Pass, len(trace.Passes))
		}
		if j.Pass > maxPass {
			maxPass = j.Pass
		}
		for _, st := range j.Stages {
			if len(st.Tasks) == 0 {
				t.Fatalf("stage %q recorded no tasks", st.Name)
			}
		}
	}
	if maxPass != len(trace.Passes) {
		t.Fatalf("spans cover passes up to %d, trace has %d", maxPass, len(trace.Passes))
	}
}

// TestChromeTraceByteDeterministic is the export promise end to end: two
// identical engine runs serialise to byte-identical Chrome traces.
func TestChromeTraceByteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	recA, _ := mineObserved(t, Config{})
	if err := obs.WriteChromeTrace(&a, recA); err != nil {
		t.Fatal(err)
	}
	recB, _ := mineObserved(t, Config{})
	if err := obs.WriteChromeTrace(&b, recB); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical runs exported different trace bytes")
	}
}

// TestPassBoundaryFreesShuffle asserts the facade's iteration-scoped
// unpersist discipline: every pass's shuffle output is reclaimed at its pass
// boundary, so nothing is resident after Mine returns, every pass records
// frees, and the per-pass resident-byte delta is ~zero (spilled within the
// pass, freed at its end) while the run's cumulative spill is not.
func TestPassBoundaryFreesShuffle(t *testing.T) {
	rec := obs.New()
	ctx, fs, path := stage(t, classicDB(), rdd.WithRecorder(rec))
	trace, err := Mine(ctx, fs, path, Config{MinSupport: 2.0 / 9.0})
	if err != nil {
		t.Fatal(err)
	}
	if n := ctx.ShuffleResidentBytes(); n != 0 {
		t.Fatalf("shuffle_resident_bytes = %d after Mine, want 0", n)
	}
	if peak := ctx.ShufflePeakBytes(); peak <= 0 {
		t.Fatalf("peak %d: want a positive high-water mark", peak)
	}
	if got := rec.Counters().ShuffleResidentBytes; got != 0 {
		t.Fatalf("telemetry gauge = %d after Mine, want 0", got)
	}
	for _, p := range trace.Passes {
		if p.Counters.ShuffleFrees == 0 {
			t.Fatalf("pass %d freed no shuffle output: %+v", p.K, p.Counters)
		}
		if p.Counters.ShuffleResidentBytes != 0 {
			t.Fatalf("pass %d leaked %d resident shuffle bytes", p.K, p.Counters.ShuffleResidentBytes)
		}
	}
}
