// Package itemset provides the fundamental data types of frequent itemset
// mining: items, itemsets, transactions and transaction databases.
//
// The representation follows the conventions of the Apriori literature:
// items are small dense integer identifiers, itemsets are sorted slices of
// items, and a transaction database is a bag of transactions each holding a
// sorted, duplicate-free item slice. Keeping itemsets sorted makes prefix
// joins (candidate generation), subset tests and canonical map keys cheap.
package itemset

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Item identifies a single item. Items are small non-negative integers;
// datasets name their items densely starting at 0 or 1.
type Item int32

// Itemset is a sorted, duplicate-free set of items. The zero value is the
// empty itemset. Functions in this package and its dependents assume (and
// preserve) sortedness; use Canonical to normalise untrusted input.
type Itemset []Item

// New returns a canonical itemset built from the given items: sorted with
// duplicates removed. The input slice is not modified.
func New(items ...Item) Itemset {
	s := make(Itemset, len(items))
	copy(s, items)
	return Canonical(s)
}

// Canonical sorts s in place, removes duplicates and returns the (possibly
// shortened) slice.
func Canonical(s Itemset) Itemset {
	slices.Sort(s)
	return slices.Compact(s)
}

// Len returns the number of items in s (the "k" of a k-itemset).
func (s Itemset) Len() int { return len(s) }

// Contains reports whether s contains item it. s must be sorted.
func (s Itemset) Contains(it Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= it })
	return i < len(s) && s[i] == it
}

// ContainsAll reports whether every item of sub occurs in s. Both itemsets
// must be sorted. It runs in O(len(s)+len(sub)).
func (s Itemset) ContainsAll(sub Itemset) bool {
	i := 0
	for _, want := range sub {
		for i < len(s) && s[i] < want {
			i++
		}
		if i >= len(s) || s[i] != want {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether s and t contain exactly the same items.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Compare orders itemsets lexicographically, shorter prefixes first.
// It returns -1, 0 or +1.
func (s Itemset) Compare(t Itemset) int {
	n := min(len(s), len(t))
	for i := 0; i < n; i++ {
		switch {
		case s[i] < t[i]:
			return -1
		case s[i] > t[i]:
			return 1
		}
	}
	switch {
	case len(s) < len(t):
		return -1
	case len(s) > len(t):
		return 1
	}
	return 0
}

// Clone returns a copy of s that shares no storage with it.
func (s Itemset) Clone() Itemset {
	t := make(Itemset, len(s))
	copy(t, s)
	return t
}

// Extend returns a new itemset equal to s with it appended. It requires
// it to be greater than every element of s, which is the shape produced by
// prefix-join candidate generation; it panics otherwise because silently
// producing an unsorted itemset corrupts every downstream structure.
func (s Itemset) Extend(it Item) Itemset {
	if len(s) > 0 && s[len(s)-1] >= it {
		panic(fmt.Sprintf("itemset: Extend(%d) would unsort %v", it, s))
	}
	t := make(Itemset, len(s)+1)
	copy(t, s)
	t[len(s)] = it
	return t
}

// Without returns a new itemset equal to s with the item at index i removed.
func (s Itemset) Without(i int) Itemset {
	t := make(Itemset, 0, len(s)-1)
	t = append(t, s[:i]...)
	t = append(t, s[i+1:]...)
	return t
}

// Key returns a compact string encoding of s usable as a map key. Two
// itemsets have equal keys iff they are Equal. The encoding is 4 bytes per
// item (big endian) so keys also sort in itemset order.
func (s Itemset) Key() string {
	var b strings.Builder
	b.Grow(4 * len(s))
	var buf [4]byte
	for _, it := range s {
		binary.BigEndian.PutUint32(buf[:], uint32(it))
		b.Write(buf[:])
	}
	return b.String()
}

// String renders the itemset as "{1 5 9}".
func (s Itemset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, it := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", it)
	}
	b.WriteByte('}')
	return b.String()
}

// SortSets orders a slice of itemsets lexicographically in place, which
// gives deterministic output ordering across parallel runs.
func SortSets(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool { return sets[i].Compare(sets[j]) < 0 })
}
