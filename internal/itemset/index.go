package itemset

// ItemIndex is a dense int32 remapping of the distinct items occurring in a
// candidate family: dense id i is the i-th smallest item. The counting
// kernels use it to turn sparse item identifiers into indexes of flat
// arrays and bitsets, so per-item lookups during subset enumeration are one
// bounds-checked load instead of a map probe or merge scan.
type ItemIndex struct {
	items Itemset // sorted distinct items; dense id = position
	// dense is the inverse table indexed by raw item id (-1 = absent). It is
	// only materialised while the raw id space stays small enough that the
	// table is cheap; otherwise lookups binary-search items.
	dense []int32
}

// denseTableLimit caps the raw-id-indexed inverse table. Items are small
// dense integers in every dataset this repo models, so the limit exists only
// to keep a pathological sparse id space from allocating gigabytes.
const denseTableLimit = 1 << 22

// NewItemIndex builds the dense remapping of every item occurring in sets.
func NewItemIndex(sets []Itemset) *ItemIndex {
	var all Itemset
	for _, s := range sets {
		all = append(all, s...)
	}
	ix := &ItemIndex{items: New(all...)}
	if n := len(ix.items); n > 0 {
		if max := int(ix.items[n-1]); max < denseTableLimit {
			ix.dense = make([]int32, max+1)
			for i := range ix.dense {
				ix.dense[i] = -1
			}
			for i, it := range ix.items {
				ix.dense[it] = int32(i)
			}
		}
	}
	return ix
}

// Len returns the number of distinct items indexed.
func (ix *ItemIndex) Len() int { return len(ix.items) }

// Item returns the raw item with dense id i.
func (ix *ItemIndex) Item(i int32) Item { return ix.items[i] }

// DenseOf returns the dense id of it, or -1 when it is not indexed.
func (ix *ItemIndex) DenseOf(it Item) int32 {
	if ix.dense != nil {
		if it < 0 || int(it) >= len(ix.dense) {
			return -1
		}
		return ix.dense[it]
	}
	lo, hi := 0, len(ix.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.items[mid] < it {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ix.items) && ix.items[lo] == it {
		return int32(lo)
	}
	return -1
}
