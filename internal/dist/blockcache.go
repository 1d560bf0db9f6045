package dist

import (
	"container/list"
	"os"
	"sort"
	"sync"

	"yafim/internal/dfs"
)

// The worker-side input block cache. The paper's central complaint about
// Hadoop Apriori is that every pass re-scans the transaction DB from disk;
// YAFIM's answer is to load it into an RDD once and iterate in memory
// (§IV-B). The real runtime had re-grown exactly the Hadoop defect — runMap
// called readSplit on every map task of every pass — so this cache is the
// runtime's RDD-persistence analogue: each split is parsed once, the decoded
// records are retained under a byte budget, and every later pass of the
// mining job is served from memory.
//
// Keys bind the split range to the file's identity at parse time (size +
// mtime): an input rewritten between jobs silently misses instead of serving
// stale records. The cache is deliberately ephemeral — it lives and dies
// with the worker process, is never journaled by the master, and a worker
// rebuilt after a crash simply re-reads on first touch — so it can never
// affect what is computed, only how often the disk is touched.

// blockKey identifies one decoded input block: the file's identity when it
// was parsed plus the split's byte range.
type blockKey struct {
	path    string
	size    int64
	mtimeNS int64
	offset  int64
	length  int64
}

// blockLineOverhead approximates the per-record bookkeeping cost (offset,
// string header, allocator slack) charged on top of the text bytes.
const blockLineOverhead = 32

// blockEntry is one resident decoded block.
type blockEntry struct {
	key   blockKey
	lines []dfs.Line
	bytes int64
	elem  *list.Element
}

// blockCache is an LRU cache of decoded input blocks under a byte budget.
// A nil *blockCache is valid and caches nothing — every get falls through
// to readSplit — mirroring the nil-Registry convention.
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
// and from disk otherwise. A block whose decoded cost alone exceeds the
// whole budget is served uncached rather than evicting everything else.
func (c *blockCache) get(split Split) ([]dfs.Line, error) {
	if c == nil {
		return readSplit(split)
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
		lines := e.lines
		c.mu.Unlock()
		return lines, nil
	}
	c.mu.Unlock()

	lines, err := readSplit(split)
	if err != nil {
		return nil, err
	}
	cost := int64(0)
	for _, l := range lines {
		cost += int64(len(l.Text)) + blockLineOverhead
	}
	c.mu.Lock()
	c.reads++
	c.misses++
	if _, ok := c.entries[key]; !ok && cost <= c.budget {
		e := &blockEntry{key: key, lines: lines, bytes: cost}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		c.resident += cost
		c.evictOverLocked()
	}
	c.mu.Unlock()
	return lines, nil
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
