// Package hashtree implements the candidate hash tree of Agrawal &
// Srikant's Apriori, the structure YAFIM broadcasts to workers in Phase II
// to speed up finding which candidate (k+1)-itemsets occur in each
// transaction.
//
// Interior nodes hash the next item of a candidate into a fixed fanout of
// children; leaves hold a bounded list of candidates and split when they
// overflow (unless the tree has already consumed all k items, in which case
// the leaf grows). Subset enumeration walks the tree against a transaction,
// pruning whole subtrees that no prefix of the transaction can reach.
package hashtree

import (
	"fmt"

	"yafim/internal/itemset"
)

// Default structural parameters, chosen per the original paper's guidance.
const (
	DefaultFanout  = 8
	DefaultMaxLeaf = 16
)

// Tree is a hash tree over candidate itemsets of one fixed length k. Build
// inserts candidates into a pointer tree, then compacts it into a flat
// array layout (flat.go) that subset enumeration walks allocation-free; only
// the flat layout is kept.
type Tree struct {
	k         int
	fanout    int
	fanoutSet bool
	maxLeaf   int
	sets      []itemset.Itemset // candidates by index

	// Flat layout, built by compact: see flat.go.
	index    *itemset.ItemIndex // dense remap of the candidate item universe
	nodes    []flatNode
	leafData []int32  // per leaf: candidate indexes, then k dense item columns
	sigs     []uint64 // per entry, in leafData's entry order: item signature
	exact    bool     // at most 64 dense items: a signature test decides alone
}

// node is one node of the pointer tree Build inserts into before compacting.
type node struct {
	children []*node // non-nil: interior node
	entries  []int   // leaf: candidate indices into Tree.sets
}

// Option configures tree construction.
type Option func(*Tree)

// WithFanout sets the hash fanout of interior nodes.
func WithFanout(n int) Option {
	return func(t *Tree) { t.fanout, t.fanoutSet = n, true }
}

// WithMaxLeaf sets the leaf capacity before splitting.
func WithMaxLeaf(n int) Option {
	return func(t *Tree) { t.maxLeaf = n }
}

// Build constructs a hash tree over the given candidate k-itemsets. All
// candidates must be the same length k >= 1 and must be canonical (items
// strictly increasing); Build panics otherwise, because a malformed
// candidate set poisons every support count derived from it.
func Build(candidates []itemset.Itemset, opts ...Option) *Tree {
	if len(candidates) == 0 {
		panic("hashtree: Build with no candidates")
	}
	t := &Tree{
		k:       candidates[0].Len(),
		fanout:  DefaultFanout,
		maxLeaf: DefaultMaxLeaf,
		sets:    candidates,
	}
	for _, o := range opts {
		o(t)
	}
	if t.k < 1 {
		panic("hashtree: candidates must have at least one item")
	}
	if !t.fanoutSet {
		t.fanout = adaptiveFanout(len(candidates), t.k, t.maxLeaf)
	}
	if t.fanout < 2 || t.maxLeaf < 1 {
		panic(fmt.Sprintf("hashtree: bad shape fanout=%d maxLeaf=%d", t.fanout, t.maxLeaf))
	}
	for i, c := range candidates {
		if c.Len() != t.k {
			panic(fmt.Sprintf("hashtree: candidate %d has length %d, want %d", i, c.Len(), t.k))
		}
		for j := 1; j < len(c); j++ {
			if c[j] <= c[j-1] {
				panic(fmt.Sprintf("hashtree: candidate %d %v is not strictly increasing", i, c))
			}
		}
	}
	t.compact(t.pointerTree())
	return t
}

// pointerTree inserts every candidate, in index order, into a fresh pointer
// tree of the configured shape.
func (t *Tree) pointerTree() *node {
	root := &node{}
	for i := range t.sets {
		t.insert(root, 0, i)
	}
	return root
}

// Len returns the number of candidates stored.
func (t *Tree) Len() int { return len(t.sets) }

// Candidate returns the candidate with the given index.
func (t *Tree) Candidate(i int) itemset.Itemset { return t.sets[i] }

// Candidates returns the backing candidate slice; callers must not modify
// it.
func (t *Tree) Candidates() []itemset.Itemset { return t.sets }

// adaptiveFanout sizes interior nodes so that a tree of n k-candidates
// keeps expected leaf occupancy near maxLeaf even when k is small: leaves
// stop splitting at depth k, so with a fixed small fanout a large C2 would
// pile thousands of candidates into each leaf and subset enumeration would
// degenerate to a linear scan.
func adaptiveFanout(n, k, maxLeaf int) int {
	fanout := DefaultFanout
	for fanout < 1<<14 && pow(fanout, k) < n/maxLeaf {
		fanout *= 2
	}
	return fanout
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		if out > 1<<30 {
			return out
		}
		out *= base
	}
	return out
}

func (t *Tree) hash(it itemset.Item) int { return int(it) % t.fanout }

func (t *Tree) insert(n *node, depth, idx int) {
	for n.children != nil {
		n = n.children[t.hash(t.sets[idx][depth])]
		depth++
	}
	n.entries = append(n.entries, idx)
	if len(n.entries) > t.maxLeaf && depth < t.k {
		// Split: redistribute entries one level deeper.
		n.children = make([]*node, t.fanout)
		for i := range n.children {
			n.children[i] = &node{}
		}
		entries := n.entries
		n.entries = nil
		for _, e := range entries {
			t.insert(n.children[t.hash(t.sets[e][depth])], depth+1, e)
		}
	}
}

// CountSupports scans the transactions and returns the support count of
// every candidate, plus the total elementary operations performed. It is
// the sequential reference used by both the driver programs and tests.
func (t *Tree) CountSupports(transactions []itemset.Transaction) (counts []int, ops int64) {
	counts = make([]int, t.Len())
	m := t.NewMatcher()
	for _, tr := range transactions {
		ops += m.Subset(tr.Items, func(i int) { counts[i]++ })
	}
	return counts, ops
}

// SerializedBytes estimates the wire size of the tree for broadcast cost
// accounting: four bytes per item, eight bytes of framing per candidate and
// a fixed 64-byte header. The tree's shape does not enter the estimate.
func (t *Tree) SerializedBytes() int64 {
	return int64(t.Len())*int64(4*t.k+8) + 64
}
