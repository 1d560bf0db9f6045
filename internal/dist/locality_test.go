package dist

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"yafim/internal/obs"
)

// gaugeValue reads the unlabelled gauge name from reg's Prometheus export,
// as a scraper of /metrics would.
func gaugeValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("gauge %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("gauge %s not exported", name)
	return 0
}

// testSplit returns the split testJob assigns to map i.
func testSplit(i int) Split {
	return Split{Path: "/in", Offset: int64(i * 100), Length: 100}
}

func TestLeasePrefersWorkerCachingTheSplit(t *testing.T) {
	reg := obs.NewRegistry()
	tb := newLeaseTable(testTuning(), nil, reg)
	testJob(t, tb, 2, 1)
	w1 := register(t, tb, "a:1", 0)
	w2 := register(t, tb, "b:2", 0)
	_ = w1

	// w2 advertises map 1's split as cached; asking for work it must be
	// handed map 1 even though map 0 is idle and listed first.
	tb.advertiseCache(w2, []Split{testSplit(1)}, CacheStats{}, false)
	task, _ := tb.lease(w2, 0)
	if task == nil || task.Phase != PhaseMap || task.Index != 1 {
		t.Fatalf("lease = %+v, want map 1 (cached on w2)", task)
	}
	if got := tb.m.localGrants.Value(); got != 1 {
		t.Fatalf("local grants = %v, want 1", got)
	}
}

func TestLeaseDefersCachedSplitThenFallsBack(t *testing.T) {
	cfg := testTuning()
	tb := newLeaseTable(cfg, nil, obs.NewRegistry())
	testJob(t, tb, 1, 1)
	w1 := register(t, tb, "a:1", 0)
	w2 := register(t, tb, "b:2", 0)

	// w1 caches the only split. w2 asking must be deferred — the grace
	// window gives w1 (idle workers poll at heartbeat cadence) the chance
	// to claim its own block.
	tb.advertiseCache(w1, []Split{testSplit(0)}, CacheStats{}, false)
	if task, _ := tb.lease(w2, 0); task != nil {
		t.Fatalf("deferred split granted immediately: %+v", task)
	}
	// Still inside the window: still deferred.
	tb.heartbeat(w1, cfg.HeartbeatTimeout/2)
	tb.heartbeat(w2, cfg.HeartbeatTimeout/2)
	if task, _ := tb.lease(w2, cfg.HeartbeatTimeout-1); task != nil {
		t.Fatalf("granted inside grace window: %+v", task)
	}
	// Past the window the preference yields: anyone gets the task — the
	// locality hint may cost one bounded wait, never progress.
	tb.heartbeat(w1, cfg.HeartbeatTimeout)
	tb.heartbeat(w2, cfg.HeartbeatTimeout)
	task, _ := tb.lease(w2, cfg.HeartbeatTimeout)
	if task == nil || task.Index != 0 {
		t.Fatalf("post-window lease = %+v, want map 0", task)
	}
	if got := tb.m.localGrants.Value(); got != 0 {
		t.Fatalf("fallback grant counted as local: %v", got)
	}
}

func TestLeaseOwnerClaimsDuringGraceWindow(t *testing.T) {
	cfg := testTuning()
	tb := newLeaseTable(cfg, nil, obs.NewRegistry())
	testJob(t, tb, 1, 1)
	w1 := register(t, tb, "a:1", 0)
	w2 := register(t, tb, "b:2", 0)

	tb.advertiseCache(w1, []Split{testSplit(0)}, CacheStats{}, false)
	if task, _ := tb.lease(w2, 0); task != nil {
		t.Fatalf("deferred split granted to non-owner: %+v", task)
	}
	// The caching owner shows up mid-window and wins its own block.
	task, _ := tb.lease(w1, cfg.HeartbeatTimeout/2)
	if task == nil || task.Index != 0 {
		t.Fatalf("owner lease = %+v, want map 0", task)
	}
	if got := tb.m.localGrants.Value(); got != 1 {
		t.Fatalf("local grants = %v, want 1", got)
	}
}

func TestLeaseDeadOwnerAdsClearedImmediately(t *testing.T) {
	cfg := testTuning()
	reg := obs.NewRegistry()
	tb := newLeaseTable(cfg, nil, reg)
	testJob(t, tb, 1, 1)
	w1 := register(t, tb, "a:1", 0)
	w2 := register(t, tb, "b:2", 0)

	tb.advertiseCache(w1, []Split{testSplit(0)}, CacheStats{Bytes: 4096}, false)
	if got := gaugeValue(t, reg, "dist_input_cache_bytes"); got != 4096 {
		t.Fatalf("cache bytes gauge = %v, want 4096", got)
	}
	// w1 dies without ever beating again; its cache died with the process,
	// so w2 must be granted the split with no deferral at all and the
	// resident-bytes gauge must unwind.
	now := cfg.HeartbeatTimeout + 1
	tb.heartbeat(w2, now)
	tb.sweep(now)
	task, _ := tb.lease(w2, now)
	if task == nil || task.Index != 0 {
		t.Fatalf("lease after owner death = %+v, want map 0", task)
	}
	if got := gaugeValue(t, reg, "dist_input_cache_bytes"); got != 0 {
		t.Fatalf("cache bytes gauge = %v after owner death, want 0", got)
	}
	_ = w1
}

func TestAdvertiseCacheFoldsDeltasOnce(t *testing.T) {
	reg := obs.NewRegistry()
	tb := newLeaseTable(testTuning(), nil, reg)
	w := register(t, tb, "a:1", 0)

	// Registration installs the baseline without counting: a rejoining
	// incarnation's cumulative counters were already folded under its old id.
	tb.advertiseCache(w, nil, CacheStats{Seq: 1, Reads: 10, Hits: 5, Bytes: 100}, true)
	if got := tb.m.inputReads.Value(); got != 0 {
		t.Fatalf("baseline counted: input reads = %v", got)
	}
	if got := gaugeValue(t, reg, "dist_input_cache_bytes"); got != 100 {
		t.Fatalf("cache bytes gauge = %v, want 100", got)
	}
	// The next report folds only the delta.
	tb.advertiseCache(w, nil, CacheStats{Seq: 2, Reads: 13, Hits: 9, Bytes: 60}, false)
	if got := tb.m.inputReads.Value(); got != 3 {
		t.Fatalf("input reads = %v, want delta 3", got)
	}
	if got := tb.m.cacheHits.Value(); got != 4 {
		t.Fatalf("cache hits = %v, want delta 4", got)
	}
	if got := gaugeValue(t, reg, "dist_input_cache_bytes"); got != 60 {
		t.Fatalf("cache bytes gauge = %v, want 60", got)
	}
}

func TestAdvertiseCacheDropsStaleSeqReport(t *testing.T) {
	reg := obs.NewRegistry()
	tb := newLeaseTable(testTuning(), nil, reg)
	testJob(t, tb, 1, 1)
	w := register(t, tb, "a:1", 0)

	// The completion report (Seq 5) lands first; a heartbeat built earlier
	// (Seq 4) arrives late. The stale report must change nothing: neither
	// the counters nor — critically — the cached-split inventory, which the
	// late heartbeat does not yet contain.
	tb.advertiseCache(w, []Split{testSplit(0)}, CacheStats{Seq: 5, Reads: 2, Bytes: 50}, false)
	tb.advertiseCache(w, nil, CacheStats{Seq: 4, Reads: 1, Bytes: 30}, false)

	if got := tb.m.inputReads.Value(); got != 2 {
		t.Fatalf("input reads = %v after stale report, want 2", got)
	}
	if got := gaugeValue(t, reg, "dist_input_cache_bytes"); got != 50 {
		t.Fatalf("cache bytes gauge = %v after stale report, want 50", got)
	}
	task, _ := tb.lease(w, 0)
	if task == nil || task.Index != 0 {
		t.Fatalf("lease = %+v: stale report clobbered the fresh inventory", task)
	}
	if got := tb.m.localGrants.Value(); got != 1 {
		t.Fatalf("local grants = %v, want 1", got)
	}
}

func TestAdvertiseCacheIgnoresUnknownAndDeadWorkers(t *testing.T) {
	cfg := testTuning()
	reg := obs.NewRegistry()
	tb := newLeaseTable(cfg, nil, reg)
	w := register(t, tb, "a:1", 0)

	tb.advertiseCache(99, []Split{testSplit(0)}, CacheStats{Bytes: 10}, false)
	if got := gaugeValue(t, reg, "dist_input_cache_bytes"); got != 0 {
		t.Fatalf("unknown worker moved the gauge: %v", got)
	}
	var now time.Duration = cfg.HeartbeatTimeout + 1
	tb.sweep(now) // w dies
	tb.advertiseCache(w, []Split{testSplit(0)}, CacheStats{Bytes: 10}, false)
	if got := gaugeValue(t, reg, "dist_input_cache_bytes"); got != 0 {
		t.Fatalf("dead worker moved the gauge: %v", got)
	}
}
