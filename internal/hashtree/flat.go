package hashtree

import (
	"math"
	"math/bits"

	"yafim/internal/itemset"
)

// The flat layout is built once at the end of Build by compacting the
// pointer tree. Nodes live in one slice, and the fanout children of an
// interior node are a contiguous window of it, so the walk reads a child
// without first loading its position. Each leaf's entries are one window of
// leafData, stored column by column: the candidate indexes, then every
// candidate's first item, then every second item, and so on, with items
// remapped to dense int32 ids. A parallel column, sigs, holds each entry's
// 64-bit item signature: bit d&63 is set for every dense id d of its items.
// A leaf check rejects an entry whose signature has a bit the row's lacks
// with one AND-NOT. When the tree has at most 64 dense items every id owns
// its own bit, so that test is exact and no item column is read; otherwise
// ids share bits, and an entry that passes has its items checked against the
// row's stamps. All walk scratch lives in a Matcher, so the walk allocates
// nothing once its Matcher has seen the longest row.

// flatNode is one compacted tree node. child is the position in Tree.nodes
// of the node's first child (its fanout children follow it), or -1 for a
// leaf holding entries entryLo..entryHi-1, whose window is
// leafData[entryLo*(k+1) : entryHi*(k+1)] and whose signatures are
// sigs[entryLo:entryHi].
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
	t.exact = t.index.Len() <= 64
	t.nodes = make([]flatNode, 1)
	t.leafData = make([]int32, 0, len(t.sets)*(t.k+1))
	t.sigs = make([]uint64, 0, len(t.sets))
	t.flatten(root, 0)
}

// flatten stores pointer node n at flat position id, appending the window
// of its children or its leaf entries.
func (t *Tree) flatten(n *node, id int32) {
	if n.children == nil {
		cnt := len(n.entries)
		start := len(t.leafData)
		t.leafData = append(t.leafData, make([]int32, cnt*(t.k+1))...)
		window := t.leafData[start:]
		for e, c := range n.entries {
			window[e] = int32(c)
			var sig uint64
			for j, it := range t.sets[c] {
				d := t.index.DenseOf(it)
				window[(j+1)*cnt+e] = d
				sig |= 1 << (d & 63)
			}
			t.sigs = append(t.sigs, sig)
		}
		lo := int32(start / (t.k + 1))
		t.nodes[id] = flatNode{child: -1, entryLo: lo, entryHi: lo + int32(cnt)}
		return
	}
	base := int32(len(t.nodes))
	t.nodes[id].child = base
	t.nodes = append(t.nodes, make([]flatNode, t.fanout)...)
	for h, c := range n.children {
		t.flatten(c, base+int32(h))
	}
}

// leafOps is the model's charge for visiting leaf n: one node hop plus k
// per entry, whether or not the entry's check exits early.
func (t *Tree) leafOps(n flatNode) int64 {
	return 1 + int64(t.k)*int64(n.entryHi-n.entryLo)
}

// rowScratch is how many row items a new Matcher hashes without growing its
// scratch; a longer row grows it once, to that row's length.
const rowScratch = 64

// Matcher holds the reusable scratch state of one subset-enumeration
// worker. A Matcher is not safe for concurrent use; each worker owns one
// (NewMatcher).
type Matcher struct {
	t *Tree
	// row numbers the current transaction: dense item d is in it exactly
	// when stamp[d] == row, so nothing is cleared between rows.
	row   int32
	stamp []int32
	// sig is the current row's item signature, built like a leaf entry's.
	sig uint64
	// hashes holds the child bucket of every row item, hashed once per row.
	hashes []int32
	// first holds one fanout-sized window per interior depth: 1 + the
	// position of the first row item, at or after the node's start, that
	// hashes to each child. Only the slots marked in touched are current.
	first []int32
	// touched holds one fanout-bit bitmap per interior depth, marking the
	// children the row reaches; the walk clears each word as it reads it.
	touched []uint64
	words   int // uint64 words per touched bitmap
}

// NewMatcher returns a matcher with freshly allocated scratch buffers.
// Callers that process many transactions (one partition, one map task)
// should create one matcher and reuse it for every row.
func (t *Tree) NewMatcher() *Matcher {
	words := (t.fanout + 63) / 64
	nStamp, nFirst := t.index.Len(), t.k*t.fanout
	scratch := make([]int32, nStamp+nFirst+rowScratch)
	return &Matcher{
		t:       t,
		stamp:   scratch[:nStamp:nStamp],
		first:   scratch[nStamp : nStamp+nFirst : nStamp+nFirst],
		hashes:  scratch[nStamp+nFirst:],
		touched: make([]uint64, t.k*words),
		words:   words,
	}
}

// Subset calls visit(i) for every candidate i whose itemset is contained in
// the transaction items (which must be canonical). Matches come leaf by
// leaf, depth first with children in ascending hash order, and in insertion
// order within a leaf. Subset returns ops, the performance model's charge
// for the walk, which callers bill as CPU time: 1 per node visited plus k
// per entry of every leaf visited, whether or not that entry's check exits
// early (1 in all for a row shorter than k).
func (m *Matcher) Subset(items itemset.Itemset, visit func(i int)) int64 {
	t := m.t
	if items.Len() < t.k {
		return 1
	}
	m.load(items)
	root := t.nodes[0]
	if root.child < 0 {
		m.leaf(root, visit)
		return t.leafOps(root)
	}
	return m.walk(root.child, items.Len(), 0, 0, visit)
}

// load starts a new row: it hashes every item once, and stamps the dense id
// of each item some candidate contains and sets its signature bit.
func (m *Matcher) load(items itemset.Itemset) {
	t := m.t
	if len(items) > len(m.hashes) {
		m.hashes = make([]int32, len(items))
	}
	if m.row == math.MaxInt32 {
		clear(m.stamp)
		m.row = 0
	}
	m.row++
	var sig uint64
	for i, it := range items {
		m.hashes[i] = int32(t.hash(it))
		if d := t.index.DenseOf(it); d >= 0 {
			m.stamp[d] = m.row
			sig |= 1 << (d & 63)
		}
	}
	m.sig = sig
}

// walk visits the interior node at depth whose children start at flat
// position base, reached through row positions from onwards (n is the row
// length). It marks the children the remaining items hash to, with the
// first position of each, then visits them in ascending hash order,
// checking leaves in place and recursing into interior children.
func (m *Matcher) walk(base int32, n, from, depth int, visit func(i int)) int64 {
	t := m.t
	first := m.first[depth*t.fanout : (depth+1)*t.fanout]
	touched := m.touched[depth*m.words : (depth+1)*m.words]
	for i, h := range m.hashes[from:n] {
		if bit := uint64(1) << (h & 63); touched[h>>6]&bit == 0 {
			touched[h>>6] |= bit
			first[h] = int32(from + i + 1)
		}
	}
	ops := int64(1)
	children := t.nodes[base:][:t.fanout]
	for w, set := range touched {
		if set == 0 {
			continue
		}
		touched[w] = 0
		for ; set != 0; set &= set - 1 {
			h := w<<6 | bits.TrailingZeros64(set)
			if c := children[h]; c.child < 0 {
				m.leaf(c, visit)
				ops += t.leafOps(c)
			} else {
				ops += m.walk(c.child, n, int(first[h]), depth+1, visit)
			}
		}
	}
	return ops
}

// leaf visits, in entry order, every candidate of leaf n whose items are
// all in the current row. A candidate whose signature has a bit the row's
// lacks costs one load of the signature column. On an exact tree a
// candidate that passes is in the row; otherwise its items are checked
// against the row's stamps.
func (m *Matcher) leaf(n flatNode, visit func(i int)) {
	t := m.t
	sigs := t.sigs[n.entryLo:n.entryHi]
	cnt, stride := len(sigs), t.k+1
	window := t.leafData[int(n.entryLo)*stride : int(n.entryHi)*stride]
	cands := window[:cnt]
	rowSig, exact, row, stamp := m.sig, t.exact, m.row, m.stamp
next:
	for e, s := range sigs {
		if s&^rowSig != 0 {
			continue
		}
		if !exact {
			for j := cnt + e; j < len(window); j += cnt {
				if stamp[window[j]] != row {
					continue next
				}
			}
		}
		visit(int(cands[e]))
	}
}
