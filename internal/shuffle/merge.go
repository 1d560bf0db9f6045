package shuffle

import (
	"cmp"
	"slices"
)

// CombineRuns is the map-side combine of one task. It places each row in
// its HashKey(key) % parts bucket of one slice, keeping row order, and
// folds each bucket into a run: equal keys in a row fold on the spot, and a
// bucket that is not ascending (YAFIM's counting closure emits ascending
// ids, so its buckets are) is cut into ascending stretches that merge
// sort back together. Run i of the result is runs[offs[i]:offs[i+1]]: one
// record per distinct key, ascending, each value the left fold of the key's
// values in row order. The slice is exactly as long as the records it
// holds.
func CombineRuns[K cmp.Ordered, V any](rows []Pair[K, V], parts int,
	combine func(V, V) V) (runs []Pair[K, V], offs []int) {
	bucket := make([]int32, len(rows))
	offs = make([]int, parts+1)
	for i := range rows {
		b := int(HashKey(rows[i].Key) % uint32(parts))
		bucket[i] = int32(b)
		offs[b+1]++
	}
	for b := 1; b <= parts; b++ {
		offs[b] += offs[b-1]
	}
	runs = make([]Pair[K, V], len(rows))
	next := slices.Clone(offs[:parts])
	for i, b := range bucket {
		runs[next[b]] = rows[i]
		next[b]++
	}
	// Fold each bucket in place, compacting the runs towards the front: w
	// never passes the record being read.
	m := Merger[K, V]{Combine: combine}
	var stretches [][]Pair[K, V]
	w := 0
	for b := 0; b < parts; b++ {
		in := runs[offs[b]:offs[b+1]]
		start := w
		offs[b] = w
		stretches = stretches[:0]
		for i, kv := range in {
			if i > 0 {
				if kv.Key == runs[w-1].Key {
					runs[w-1].Value = combine(runs[w-1].Value, kv.Value)
					continue
				}
				if kv.Key < runs[w-1].Key {
					stretches = append(stretches, runs[start:w])
					start = w
				}
			}
			runs[w] = kv
			w++
		}
		if len(stretches) > 0 {
			stretches = append(stretches, runs[start:w])
			w = offs[b] + copy(runs[offs[b]:], m.Merge(stretches))
		}
	}
	offs[parts] = w
	if w < len(runs) {
		runs = slices.Clone(runs[:w])
	}
	return runs, offs
}

// Merger merges key-sorted runs of distinct keys into one key-sorted run,
// combining a key's values with Combine and reusing its two buffers from
// call to call.
type Merger[K cmp.Ordered, V any] struct {
	Combine func(V, V) V
	bufs    [2][]Pair[K, V]
}

// Merge merges runs pairwise in a balanced tree, level by level between the
// two buffers, so each record is copied about log2(len(runs)) times. The
// earlier run is always the left operand, so equal keys combine as
// combine(earlier, later), and any associative combine gives the result of
// a left fold in run order. merge overwrites runs' entries, and its result
// may alias a run or a buffer, so it is valid only until the next call.
func (m *Merger[K, V]) Merge(runs [][]Pair[K, V]) []Pair[K, V] {
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	for level := 0; len(runs) > 1; level++ {
		// A level's output is no longer than its input, so a buffer sized
		// for one level fits every later level it serves.
		buf := &m.bufs[level%2]
		if cap(*buf) < n {
			*buf = make([]Pair[K, V], 0, n)
		}
		dst := (*buf)[:0]
		next := runs[:0] // entry i/2 is written only after entries i and i+1 are read
		for i := 0; i < len(runs); i += 2 {
			lo := len(dst)
			if i+1 < len(runs) {
				dst = mergeTwo(dst, runs[i], runs[i+1], m.Combine)
			} else {
				dst = append(dst, runs[i]...)
			}
			next = append(next, dst[lo:len(dst):len(dst)])
		}
		runs, n = next, len(dst)
	}
	if len(runs) == 0 {
		return nil
	}
	return runs[0]
}

// mergeTwo appends the merge of key-sorted runs a and b (each with distinct
// keys) to dst, combining a key present in both as combine(a's, b's).
func mergeTwo[K cmp.Ordered, V any](dst, a, b []Pair[K, V], combine func(V, V) V) []Pair[K, V] {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Key < b[j].Key:
			dst = append(dst, a[i])
			i++
		case b[j].Key < a[i].Key:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, Pair[K, V]{Key: a[i].Key, Value: combine(a[i].Value, b[j].Value)})
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
