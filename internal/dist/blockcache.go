package dist

import (
	"container/list"
	"os"
	"sort"
	"sync"
	"unsafe"

	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
)

// The worker-side input block cache. The paper's central complaint about
// Hadoop Apriori is that every pass re-scans the transaction DB from disk;
// YAFIM's answer is to parse it into an RDD once, cache it and iterate in
// memory (§IV-B). This cache is the runtime's analogue of that cached
// transactions RDD: the first pass to touch a split reads and parses it,
// the parsed records (not the text) are retained under a byte budget, and
// every later pass of the mining job maps them from memory.
//
// Keys bind the split range to the file's identity at parse time (size +
// mtime): an input rewritten between jobs silently misses instead of serving
// stale records. The cache is deliberately ephemeral — it lives and dies
// with the worker process, is never journaled by the master, and a worker
// rebuilt after a crash simply re-reads on first touch — so it can never
// affect what is computed, only how often the disk is touched and the text
// parsed.

// blockKey identifies one parsed input block: the file's identity when it
// was parsed plus the split's byte range.
type blockKey struct {
	path    string
	size    int64
	mtimeNS int64
	offset  int64
	length  int64
}

// blockEntry is one resident parsed block.
type blockEntry struct {
	key   blockKey
	recs  []mapreduce.Record
	bytes int64
	elem  *list.Element
}

// residentBytes prices a parsed block by what it holds in memory: each
// record's header and each of its items.
func residentBytes(recs []mapreduce.Record) int64 {
	n := int64(len(recs)) * int64(unsafe.Sizeof(mapreduce.Record{}))
	for _, r := range recs {
		n += int64(len(r.Items)) * int64(unsafe.Sizeof(itemset.Item(0)))
	}
	return n
}

// blockCache is an LRU cache of parsed input blocks under a byte budget.
// A nil *blockCache is valid and caches nothing — every get falls through
// to readRecords — mirroring the nil-Registry convention.
type blockCache struct {
	mu      sync.Mutex
	budget  int64
	entries map[blockKey]*blockEntry
	lru     *list.List // front = most recently used

	resident                       int64
	reads, hits, misses, evictions int64
	reportSeq                      int64
}

func newBlockCache(budget int64) *blockCache {
	return &blockCache{
		budget:  budget,
		entries: map[blockKey]*blockEntry{},
		lru:     list.New(),
	}
}

// setBudget replaces the byte budget, evicting as needed. The master owns
// the knob (Tuning.InputCacheBytes) and delivers it at registration.
func (c *blockCache) setBudget(budget int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	c.evictOverLocked()
}

// get returns the split's records, from memory when the block is resident
// and read and parsed from disk otherwise. A block whose resident bytes
// alone exceed the whole budget is served uncached rather than evicting
// everything else. The records are read-only: later passes map them again.
func (c *blockCache) get(split Split) ([]mapreduce.Record, error) {
	if c == nil {
		return readRecords(split)
	}
	fi, err := os.Stat(split.Path)
	if err != nil {
		return nil, err
	}
	key := blockKey{
		path: split.Path, size: fi.Size(), mtimeNS: fi.ModTime().UnixNano(),
		offset: split.Offset, length: split.Length,
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.hits++
		recs := e.recs
		c.mu.Unlock()
		return recs, nil
	}
	c.mu.Unlock()

	recs, err := readRecords(split)
	if err != nil {
		return nil, err
	}
	cost := residentBytes(recs)
	c.mu.Lock()
	c.reads++
	c.misses++
	if _, ok := c.entries[key]; !ok && cost <= c.budget {
		e := &blockEntry{key: key, recs: recs, bytes: cost}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		c.resident += cost
		c.evictOverLocked()
	}
	c.mu.Unlock()
	return recs, nil
}

// evictOverLocked drops least-recently-used blocks until resident <= budget.
func (c *blockCache) evictOverLocked() {
	for c.resident > c.budget {
		back := c.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*blockEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.resident -= e.bytes
		c.evictions++
	}
}

// sortedSplits flattens a split set into deterministic wire order.
func sortedSplits(set map[Split]struct{}) []Split {
	out := make([]Split, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Offset < out[j].Offset
	})
	return out
}

func (c *blockCache) statsLocked() CacheStats {
	return CacheStats{
		Seq:   c.reportSeq,
		Reads: c.reads, Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Bytes: c.resident,
	}
}

// report atomically takes the inventory and counters for one wire report,
// stamped with the next report sequence. Register, heartbeat and complete
// all go through here, so the master can totally order a worker's reports
// however the HTTP requests interleave. The inventory lists the resident
// blocks as wire Splits in deterministic order; two generations of the same
// range (the file changed under us) collapse into one entry, because the
// advertisement is a placement hint, never a correctness input.
func (c *blockCache) report() ([]Split, CacheStats) {
	if c == nil {
		return nil, CacheStats{}
	}
	c.mu.Lock()
	c.reportSeq++
	stats := c.statsLocked()
	set := make(map[Split]struct{}, len(c.entries))
	for k := range c.entries {
		set[Split{Path: k.path, Offset: k.offset, Length: k.length}] = struct{}{}
	}
	c.mu.Unlock()
	return sortedSplits(set), stats
}
