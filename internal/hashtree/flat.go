package hashtree

import (
	"yafim/internal/itemset"
)

// The flat layout is built once at the end of Build by compacting the
// pointer tree: nodes live in one slice, children of an interior node are a
// contiguous fanout-sized window of childIdx, and leaf entries are windows
// of entryIdx. Candidate items are remapped to dense int32 ids so the leaf
// containment test is one bitset probe per item against the transaction's
// cached encoding, with no pointer chasing into the candidate slices. The
// walk allocates nothing: all scratch state lives in a Matcher.

// flatNode is one compacted tree node. child is the offset of the node's
// fanout children in Tree.childIdx, or -1 for a leaf whose candidate
// indexes occupy entryIdx[entryLo:entryHi].
type flatNode struct {
	child   int32
	entryLo int32
	entryHi int32
}

// compact freezes the pointer tree rooted at root into the flat arrays and
// builds the dense item remapping. Entry order within each leaf and child
// order within each interior node are preserved, so the flat walk
// enumerates candidates in exactly the order the pointer walk did. The
// root is flat node 0.
func (t *Tree) compact(root *node) {
	t.index = itemset.NewItemIndex(t.sets)
	t.candDense = make([]int32, 0, len(t.sets)*t.k)
	for _, c := range t.sets {
		t.candDense = t.index.Remap(c, t.candDense)
	}
	t.flatten(root)
	t.matchers.New = func() any { return t.NewMatcher() }
}

func (t *Tree) flatten(n *node) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, flatNode{child: -1})
	if n.children == nil {
		lo := int32(len(t.entryIdx))
		for _, e := range n.entries {
			t.entryIdx = append(t.entryIdx, int32(e))
		}
		t.nodes[id].entryLo, t.nodes[id].entryHi = lo, int32(len(t.entryIdx))
		return id
	}
	base := int32(len(t.childIdx))
	t.nodes[id].child = base
	t.childIdx = append(t.childIdx, make([]int32, t.fanout)...)
	for h, c := range n.children {
		t.childIdx[int(base)+h] = t.flatten(c)
	}
	return id
}

// Matcher holds the reusable scratch state of one subset-enumeration
// worker: the per-depth visited masks of the walk and the transaction's
// bitset encoding. A Matcher is not safe for concurrent use; each worker
// owns one (NewMatcher), or lets Tree.Subset borrow one from the tree's
// pool.
type Matcher struct {
	t *Tree
	// mark/first are k stacked fanout-sized visited masks, one per interior
	// depth, validated by epoch so they never need clearing between rows.
	mark  []uint64
	first []int32
	epoch uint64
	// bits caches the current transaction's dense-item encoding.
	bits *itemset.Bitset
}

// NewMatcher returns a matcher with freshly allocated scratch buffers.
// Callers that process many transactions (one partition, one map task)
// should create one matcher and reuse it for every row.
func (t *Tree) NewMatcher() *Matcher {
	return &Matcher{
		t:     t,
		mark:  make([]uint64, t.k*t.fanout),
		first: make([]int32, t.k*t.fanout),
		bits:  itemset.NewBitset(t.index.Len()),
	}
}

// Subset calls visit(i) for every candidate i contained in the transaction
// items (which must be canonical), returning the elementary operations
// performed under the same accounting as Tree.Subset.
func (m *Matcher) Subset(items itemset.Itemset, visit func(i int)) int64 {
	t := m.t
	if items.Len() < t.k {
		return 1
	}
	m.bits.ClearAll()
	t.index.Encode(items, m.bits)
	return m.walk(0, items, 0, 0, visit)
}

// walk descends the flat tree. At an interior node, the first transaction
// position hashing to each child is recorded in the epoch-stamped mask; at
// a leaf, every stored candidate is verified against the transaction's
// bitset encoding.
func (m *Matcher) walk(node int32, items itemset.Itemset, from, depth int, visit func(i int)) int64 {
	t := m.t
	n := t.nodes[node]
	if n.child < 0 {
		ops := int64(1)
		k := t.k
		for _, e := range t.entryIdx[n.entryLo:n.entryHi] {
			ops += int64(k)
			if m.contains(e) {
				visit(int(e))
			}
		}
		return ops
	}
	ops := int64(1)
	base := depth * t.fanout
	m.epoch++
	e := m.epoch
	for i := from; i < items.Len(); i++ {
		h := base + t.hash(items[i])
		if m.mark[h] != e {
			m.mark[h] = e
			m.first[h] = int32(i + 1)
		}
	}
	for h := 0; h < t.fanout; h++ {
		if m.mark[base+h] == e {
			ops += m.walk(t.childIdx[int(n.child)+h], items, int(m.first[base+h]), depth+1, visit)
		}
	}
	return ops
}

// contains reports whether candidate cand's every item is set in the
// current transaction encoding.
func (m *Matcher) contains(cand int32) bool {
	k := int32(m.t.k)
	for _, d := range m.t.candDense[cand*k : (cand+1)*k] {
		if !m.bits.Get(int(d)) {
			return false
		}
	}
	return true
}
