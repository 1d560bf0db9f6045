package dist

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"yafim/internal/itemset"
)

// blockSplits writes content and cuts it into n splits for cache tests.
func blockSplits(t *testing.T, content string, n int) []Split {
	t.Helper()
	path := writeInput(t, content)
	splits, err := splitFile(path, n)
	if err != nil {
		t.Fatal(err)
	}
	return splits
}

// cacheStats and cachedSplits read a cache's counters and inventory through
// report, the one path a worker reads them by.
func cacheStats(c *blockCache) CacheStats {
	_, st := c.report()
	return st
}

func cachedSplits(c *blockCache) []Split {
	splits, _ := c.report()
	return splits
}

func TestBlockCacheHitOnSecondRead(t *testing.T) {
	splits := blockSplits(t, "1\n22\n333\n4444\n", 2)
	c := newBlockCache(1 << 20)

	first, err := c.get(splits[0])
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.get(splits[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached read diverges: %v vs %v", first, second)
	}
	st := cacheStats(c)
	if st.Reads != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 read, 1 miss, 1 hit", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("resident bytes = %d after insert", st.Bytes)
	}
}

func TestBlockCacheInvalidatedWhenFileChanges(t *testing.T) {
	splits := blockSplits(t, "1000001\n1000002\n", 1)
	c := newBlockCache(1 << 20)
	if _, err := c.get(splits[0]); err != nil {
		t.Fatal(err)
	}
	// Rewrite the input in place with different bytes (and a different size,
	// so the identity check cannot be defeated by filesystem mtime
	// granularity). The same split range must now miss and serve the new
	// contents, never the stale block.
	if err := os.WriteFile(splits[0].Path, []byte("20001\n20002\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := c.get(splits[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || !recs[0].Items.Equal(itemset.New(20001)) {
		t.Fatalf("stale block served after rewrite: %v", recs)
	}
	st := cacheStats(c)
	if st.Reads != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 reads and 2 misses after rewrite", st)
	}
}

func TestBlockCacheEvictsLRUUnderBudget(t *testing.T) {
	// Two separate one-line inputs of ten items each, which parse to blocks
	// of equal resident bytes; a budget of one and a half blocks holds
	// exactly one at a time.
	a := blockSplits(t, "1 2 3 4 5 6 7 8 9 10\n", 1)[0]
	b := blockSplits(t, "11 12 13 14 15 16 17 18 19 20\n", 1)[0]
	probe := newBlockCache(1 << 20)
	if _, err := probe.get(a); err != nil {
		t.Fatal(err)
	}
	budget := cacheStats(probe).Bytes * 3 / 2
	c := newBlockCache(budget)

	if _, err := c.get(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.get(b); err != nil {
		t.Fatal(err)
	}
	st := cacheStats(c)
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (budget holds one block)", st.Evictions)
	}
	if st.Bytes > budget {
		t.Fatalf("resident %d bytes exceeds %d-byte budget", st.Bytes, budget)
	}
	// Block a was evicted: touching it again reads from disk.
	if _, err := c.get(a); err != nil {
		t.Fatal(err)
	}
	if st := cacheStats(c); st.Reads != 3 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 3 reads and 0 hits after LRU eviction", st)
	}
}

func TestBlockCacheOversizedBlockServedUncached(t *testing.T) {
	var row strings.Builder
	for it := 1; it <= 100; it++ {
		fmt.Fprintf(&row, "%d ", it)
	}
	splits := blockSplits(t, row.String()+"\n", 1)
	c := newBlockCache(64) // smaller than the block's resident bytes

	for i := 0; i < 2; i++ {
		recs, err := c.get(splits[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("read %d: %d records", i, len(recs))
		}
	}
	st := cacheStats(c)
	if st.Reads != 2 || st.Hits != 0 || st.Bytes != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v: an oversized block must bypass the cache "+
			"without evicting anything", st)
	}
	if len(cachedSplits(c)) != 0 {
		t.Fatalf("uncached block advertised: %v", cachedSplits(c))
	}
}

func TestBlockCacheSetBudgetShrinkEvicts(t *testing.T) {
	c := newBlockCache(1 << 20)
	var splits []Split
	for i := 0; i < 4; i++ {
		splits = append(splits, blockSplits(t, "1234567890\n", 1)[0])
	}
	for _, s := range splits {
		if _, err := c.get(s); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(cachedSplits(c)); n != 4 {
		t.Fatalf("%d blocks resident, want 4", n)
	}
	c.setBudget(1) // shrink below any block: everything must go
	st := cacheStats(c)
	if st.Bytes != 0 || len(cachedSplits(c)) != 0 {
		t.Fatalf("resident %d bytes, ads %v after shrink to 1", st.Bytes, cachedSplits(c))
	}
	if st.Evictions != 4 {
		t.Fatalf("evictions = %d, want 4", st.Evictions)
	}
}

func TestBlockCacheAdsSortedDeterministically(t *testing.T) {
	splits := blockSplits(t, strings.Repeat("1234\n", 20), 5)
	c := newBlockCache(1 << 20)
	// Touch in scrambled order; ads must come back path-then-offset sorted.
	for _, i := range []int{3, 0, 4, 2, 1} {
		if _, err := c.get(splits[i]); err != nil {
			t.Fatal(err)
		}
	}
	ads := cachedSplits(c)
	if !reflect.DeepEqual(ads, splits) {
		t.Fatalf("ads = %v, want sorted %v", ads, splits)
	}
}

func TestBlockCacheReportSeqMonotonic(t *testing.T) {
	c := newBlockCache(1 << 20)
	_, s1 := c.report()
	_, s2 := c.report()
	if s1.Seq == 0 || s2.Seq <= s1.Seq {
		t.Fatalf("report seqs %d, %d: must be nonzero and strictly increasing",
			s1.Seq, s2.Seq)
	}
}

func TestNilBlockCacheFallsThrough(t *testing.T) {
	splits := blockSplits(t, "111\n222\n", 1)
	var c *blockCache
	recs, err := c.get(splits[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("nil cache read %d records, want 2", len(recs))
	}
	if a, st := c.report(); a != nil || st != (CacheStats{}) {
		t.Fatalf("nil cache report = %v, %+v", a, st)
	}
	c.setBudget(100) // must not panic
}

func TestTuningRejectsNegativeInputCacheBytes(t *testing.T) {
	cfg := DefaultTuning()
	cfg.InputCacheBytes = -1
	err := cfg.Validate()
	var ie *InputError
	if err == nil {
		t.Fatal("negative InputCacheBytes accepted")
	}
	if !errors.As(err, &ie) || ie.Field != "Tuning.InputCacheBytes" {
		t.Fatalf("error = %v, want InputError on Tuning.InputCacheBytes", err)
	}
}

func TestTuningDefaultsInputCacheBytes(t *testing.T) {
	var cfg Tuning
	got := cfg.withDefaults().InputCacheBytes
	if got != DefaultTuning().InputCacheBytes || got <= 0 {
		t.Fatalf("defaulted InputCacheBytes = %d", got)
	}
	keep := Tuning{InputCacheBytes: 12345}.withDefaults()
	if keep.InputCacheBytes != 12345 {
		t.Fatalf("explicit budget overwritten: %d", keep.InputCacheBytes)
	}
}
