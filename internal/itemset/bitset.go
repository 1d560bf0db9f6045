package itemset

import "math/bits"

// Bitset is a fixed-capacity bit vector over transaction indices, the
// building block of vertical bitmap mining: one Bitset per item marks the
// transactions containing it, and support counting becomes AND + popcount.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitset creates a bitset able to hold n bits, all clear.
func NewBitset(n int) *Bitset {
	if n < 0 {
		n = 0
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Words returns the number of 64-bit words backing the bitset — the unit
// the vertical mining kernels charge to the cost model, since every
// intersection touches each word exactly once.
func (b *Bitset) Words() int { return len(b.words) }

// Set sets bit i. It panics when i is out of range, matching slice
// semantics.
func (b *Bitset) Set(i int) {
	if i < 0 || i >= b.n {
		panic("itemset: bitset index out of range")
	}
	b.words[i/64] |= 1 << (i % 64)
}

// AndCountInto stores a AND other into b (which must have the same
// capacity) and returns the popcount of the result — the fused
// intersect-and-support kernel of vertical bitset mining: one pass over the
// words yields both the child tidset and its support count.
func (b *Bitset) AndCountInto(a, other *Bitset) int {
	if a.n != other.n || b.n != a.n {
		panic("itemset: bitset size mismatch")
	}
	total := 0
	for i := range b.words {
		w := a.words[i] & other.words[i]
		b.words[i] = w
		total += bits.OnesCount64(w)
	}
	return total
}

// AndCount returns the popcount of b AND other without allocating.
func (b *Bitset) AndCount(other *Bitset) int {
	if b.n != other.n {
		panic("itemset: bitset size mismatch")
	}
	total := 0
	for i := range b.words {
		total += bits.OnesCount64(b.words[i] & other.words[i])
	}
	return total
}

// VerticalBitmap is the vertical bitmap layout of a database: for every
// item, the bitset of transactions containing it.
type VerticalBitmap struct {
	Items        []*Bitset // indexed by Item
	Transactions int
}

// Vertical builds the vertical bitmap layout of db.
func (db *DB) Vertical() *VerticalBitmap {
	v := &VerticalBitmap{
		Items:        make([]*Bitset, db.NumItems()),
		Transactions: db.Len(),
	}
	for i := range v.Items {
		v.Items[i] = NewBitset(db.Len())
	}
	for ti, tr := range db.Transactions {
		for _, it := range tr.Items {
			v.Items[it].Set(ti)
		}
	}
	return v
}
