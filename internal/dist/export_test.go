package dist

import (
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
)

// The worker's map path, for the external tests: a job built as a worker
// builds it, and the block cache its map tasks read through.

// BuildJob builds a registered job type from its params and cache blobs.
func BuildJob(typ string, params []byte, cache mapreduce.CacheFiles) (mapreduce.Tasks, error) {
	return buildJob(typ, params, cache)
}

// BlockCache is a worker's input block cache.
type BlockCache = blockCache

// NewBlockCache returns an empty block cache with the given byte budget.
func NewBlockCache(budget int64) *BlockCache { return newBlockCache(budget) }

// Get returns the split's rows and text bytes as a worker's map task reads
// them.
func (c *blockCache) Get(split Split) ([]itemset.Itemset, int64, error) { return c.get(split) }
