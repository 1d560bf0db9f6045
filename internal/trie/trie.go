// Package trie implements a prefix trie over candidate k-itemsets — the
// other classic candidate store in Apriori implementations, and the
// design-space alternative to the paper's hash tree (internal/hashtree).
// Both expose the same Subset enumeration contract, so they are directly
// interchangeable and benchmarked against each other.
//
// A trie stores each candidate as a root-to-leaf path of items in sorted
// order. Subset enumeration walks transaction items against trie edges,
// never touching candidates outside the transaction's prefix space; unlike
// the hash tree it needs no final verification step because every reached
// leaf is an exact match.
//
// Build compacts the trie into a flat array layout: nodes live in one
// slice and each node's edges are a contiguous, item-sorted window of two
// parallel arrays. The walk merge-scans a node's sorted edges against the
// transaction's sorted items, so enumeration allocates nothing and follows
// no pointers.
package trie

import (
	"fmt"

	"yafim/internal/itemset"
)

// Trie is a prefix trie over candidate itemsets of one fixed length k.
type Trie struct {
	k    int
	sets []itemset.Itemset

	nodes    []tnode
	edgeItem []itemset.Item // sorted within each node's window
	edgeNode []int32
}

// tnode is one flattened trie node: its edge window and the candidate
// index stored at depth k (-1 otherwise).
type tnode struct {
	edgeLo int32
	edgeHi int32
	entry  int32
}

// buildNode is the temporary pointer node used only during Build.
type buildNode struct {
	children map[itemset.Item]*buildNode
	entry    int32
}

func newBuildNode() *buildNode {
	return &buildNode{children: make(map[itemset.Item]*buildNode), entry: -1}
}

// Build constructs a trie over the given candidate k-itemsets. All
// candidates must share length k >= 1, have strictly increasing items and
// be distinct; Build panics otherwise.
func Build(candidates []itemset.Itemset) *Trie {
	if len(candidates) == 0 {
		panic("trie: Build with no candidates")
	}
	t := &Trie{k: candidates[0].Len(), sets: candidates}
	if t.k < 1 {
		panic("trie: candidates must have at least one item")
	}
	root := newBuildNode()
	edges := 0
	for i, c := range candidates {
		if c.Len() != t.k {
			panic(fmt.Sprintf("trie: candidate %d has length %d, want %d", i, c.Len(), t.k))
		}
		for j := 1; j < len(c); j++ {
			if c[j] <= c[j-1] {
				panic(fmt.Sprintf("trie: candidate %d %v is not strictly increasing", i, c))
			}
		}
		cur := root
		for _, it := range c {
			next, ok := cur.children[it]
			if !ok {
				next = newBuildNode()
				cur.children[it] = next
				edges++
			}
			cur = next
		}
		if cur.entry >= 0 {
			panic(fmt.Sprintf("trie: candidate %d %v repeats candidate %d", i, c, cur.entry))
		}
		cur.entry = int32(i)
	}
	t.nodes = make([]tnode, 0, edges+1)
	t.edgeItem = make([]itemset.Item, 0, edges)
	t.edgeNode = make([]int32, 0, edges)
	t.flatten(root)
	return t
}

// flatten appends n and its subtree to the flat arrays, edges sorted by
// item so the walk can merge-scan them against sorted transactions.
func (t *Trie) flatten(n *buildNode) int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, tnode{entry: n.entry})
	items := make(itemset.Itemset, 0, len(n.children))
	for it := range n.children {
		items = append(items, it)
	}
	items = itemset.Canonical(items)
	lo := int32(len(t.edgeItem))
	t.edgeItem = append(t.edgeItem, items...)
	t.edgeNode = append(t.edgeNode, make([]int32, len(items))...)
	t.nodes[id].edgeLo, t.nodes[id].edgeHi = lo, int32(len(t.edgeItem))
	for i, it := range items {
		t.edgeNode[int(lo)+i] = t.flatten(n.children[it])
	}
	return id
}

// K returns the candidate itemset length.
func (t *Trie) K() int { return t.k }

// Len returns the number of candidates stored.
func (t *Trie) Len() int { return len(t.sets) }

// Candidate returns the candidate with the given index.
func (t *Trie) Candidate(i int) itemset.Itemset { return t.sets[i] }

// Subset calls visit(i) for every candidate i contained in the transaction
// items (which must be canonical), returning the number of elementary
// operations performed (edges followed), for the performance model.
func (t *Trie) Subset(items itemset.Itemset, visit func(i int)) int64 {
	if items.Len() < t.k {
		return 1
	}
	return t.subset(0, items, 0, t.k, visit)
}

// subset explores extensions of node n with transaction items at positions
// >= from. remaining is how many more items the path needs; the walk prunes
// branches that cannot be completed with the items left, and stops early
// once the node's sorted edges are exhausted.
func (t *Trie) subset(n int32, items itemset.Itemset, from, remaining int, visit func(i int)) int64 {
	nd := &t.nodes[n]
	if remaining == 0 {
		if nd.entry >= 0 {
			visit(int(nd.entry))
		}
		return 1
	}
	ops := int64(1)
	e, hi := int(nd.edgeLo), int(nd.edgeHi)
	for i := from; i <= items.Len()-remaining && e < hi; i++ {
		ops++
		for e < hi && t.edgeItem[e] < items[i] {
			e++
		}
		if e < hi && t.edgeItem[e] == items[i] {
			ops += t.subset(t.edgeNode[e], items, i+1, remaining-1, visit)
		}
	}
	return ops
}

// CountSupports scans the transactions and returns every candidate's
// support count plus the operations performed, matching the hashtree API.
func (t *Trie) CountSupports(transactions []itemset.Transaction) (counts []int, ops int64) {
	counts = make([]int, t.Len())
	for _, tr := range transactions {
		ops += t.Subset(tr.Items, func(i int) { counts[i]++ })
	}
	return counts, ops
}
