package hashtree

import (
	"fmt"
	"reflect"
	"testing"

	"yafim/internal/itemset"
)

// Limits that keep one fuzz input cheap enough for a short fuzzing budget.
const (
	fuzzMaxRows     = 32
	fuzzMaxComplete = 80000   // candidates in an enumerated family
	fuzzWorkBudget  = 1 << 26 // candidates times row items, summed over rows
)

// fuzzReader hands out the fuzz bytes one at a time, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeSubsetCase turns fuzz bytes into a tree shape, a canonical
// candidate family and rows:
//
//	byte 0   k = 1 + b%4
//	byte 1   fanout: 0 lets Build choose it, else 1 + b (2..256)
//	byte 2   leaf size: 0 keeps the default, else 1 + (b-1)%32
//	byte 3   universe: items 0 .. k+2b-1
//	byte 4   family: odd enumerates every k-subset of the universe in
//	         lexicographic order (at most fuzzMaxComplete); even reads a
//	         count byte n, then k item bytes for each of n+1 candidates
//	rest     rows, over items 0 .. universe+4 so that some items occur in
//	         no candidate. A header h < 128 is followed by h item bytes;
//	         h >= 128 reads an offset byte and takes every (h-127)-th item
//	         from it, which makes long rows cheap to encode.
func decodeSubsetCase(data []byte) (opts []Option, cands []itemset.Itemset, rows []itemset.Transaction) {
	r := fuzzReader(data)
	k := 1 + r.next()%4
	if b := r.next(); b > 0 {
		opts = append(opts, WithFanout(1+b))
	}
	if b := r.next(); b > 0 {
		opts = append(opts, WithMaxLeaf(1+(b-1)%32))
	}
	universe := k + 2*r.next()
	if r.next()%2 == 1 {
		cands = kSubsets(k, universe, fuzzMaxComplete)
	} else {
		seen := map[string]bool{}
		for n := r.next() + 1; n > 0 && len(r) > 0; n-- {
			raw := make([]itemset.Item, k)
			for i := range raw {
				raw[i] = itemset.Item(r.next() % universe)
			}
			if c := itemset.New(raw...); c.Len() == k && !seen[c.Key()] {
				seen[c.Key()] = true
				cands = append(cands, c)
			}
		}
	}
	for work := 0; len(r) > 0 && len(rows) < fuzzMaxRows; {
		var raw []itemset.Item
		if h := r.next(); h < 128 {
			for ; h > 0; h-- {
				raw = append(raw, itemset.Item(r.next()%(universe+5)))
			}
		} else {
			for it := r.next(); it < universe+5; it += h - 127 {
				raw = append(raw, itemset.Item(it))
			}
		}
		row := itemset.New(raw...)
		if work += len(cands) * (row.Len() + 1); work > fuzzWorkBudget {
			break
		}
		rows = append(rows, itemset.Transaction{Items: row})
	}
	return opts, cands, rows
}

// kSubsets returns the k-subsets of items 0..universe-1 in lexicographic
// order, stopping at limit.
func kSubsets(k, universe, limit int) []itemset.Itemset {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	var out []itemset.Itemset
	for len(out) < limit {
		c := make(itemset.Itemset, k)
		for i, v := range idx {
			c[i] = itemset.Item(v)
		}
		out = append(out, c)
		i := k - 1
		for i >= 0 && idx[i] == universe-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}

// fuzzSeed encodes a case in decodeSubsetCase's format. fanout and leaf 0
// leave Build's defaults; cands lists k item bytes per candidate, and nil
// enumerates the complete family. Each row comes from fuzzRow or
// fuzzStrided.
func fuzzSeed(k, fanout, leaf, universe int, cands []byte, rows ...[]byte) []byte {
	if fanout > 0 {
		fanout--
	}
	data := []byte{byte(k - 1), byte(fanout), byte(leaf), byte((universe - k) / 2)}
	if cands == nil {
		data = append(data, 1)
	} else {
		data = append(append(data, 0, byte(len(cands)/k-1)), cands...)
	}
	for _, r := range rows {
		data = append(data, r...)
	}
	return data
}

func fuzzRow(items ...byte) []byte { return append([]byte{byte(len(items))}, items...) }

func fuzzStrided(offset, step int) []byte { return []byte{byte(127 + step), byte(offset)} }

// FuzzSubsetParity locks the flat walk to the reference pointer walk on
// arbitrary shapes, candidate families and rows: same visits, in the same
// order, at the same ops, from one matcher reused across every row; and
// CountSupports must equal a ContainsAll scan.
func FuzzSubsetParity(f *testing.F) {
	// Small random family, Build's own fanout and leaf size.
	f.Add(fuzzSeed(2, 0, 0, 20, []byte{1, 2, 3, 4, 5, 6, 1, 3, 2, 4, 7, 9, 0, 19, 4, 5},
		fuzzRow(1, 2, 3, 4, 5, 6), fuzzRow(1, 3, 5, 7, 9), fuzzRow(0, 19, 4)))
	// A fanout far wider than the rows.
	f.Add(fuzzSeed(2, 256, 0, 60, []byte{3, 7, 9, 11, 20, 30, 41, 50, 2, 3, 5, 8, 13, 21, 34, 55},
		fuzzRow(3, 7, 9, 11, 20, 30, 41, 50), fuzzRow(2, 3, 5, 8, 13, 21, 34, 55), fuzzStrided(0, 3)))
	// Fanout 7, not a power of two, with k=3 and one-entry leaves.
	f.Add(fuzzSeed(3, 7, 1, 24, []byte{1, 2, 3, 2, 3, 4, 3, 5, 7, 7, 8, 9, 1, 8, 15, 2, 9, 16},
		fuzzRow(1, 2, 3, 5, 7, 8, 9), fuzzRow(2, 3, 4, 8, 9, 15, 16), fuzzStrided(0, 1), fuzzStrided(1, 2)))
	// Deep: fanout 2, one-entry leaves, every 4-subset of 12 items.
	f.Add(fuzzSeed(4, 2, 1, 12, nil, fuzzRow(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), fuzzStrided(0, 2)))
	// Every 2-subset of 400 items, on which Build picks fanout 128 as on
	// T10I4D100K's pass 2, with short rows and rows of 305 and 135 items.
	f.Add(fuzzSeed(2, 0, 0, 400, nil, fuzzRow(3, 17, 90, 131, 200, 222, 240, 250, 251, 255),
		fuzzStrided(100, 1), fuzzStrided(0, 3), fuzzRow(5, 250)))
	// Every 2-subset of 82 items: dense ids d and d+64 share a signature
	// bit, so a row holding 67 but not 3 passes the signature of every
	// candidate {3, x} it holds x of, and the stamps must reject them.
	f.Add(fuzzSeed(2, 0, 0, 82, nil, fuzzRow(10, 67), fuzzRow(3, 10, 67, 70, 81),
		fuzzRow(0, 1, 17, 64, 65), fuzzRow(2, 66, 5, 69, 80, 84), fuzzStrided(17, 64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		opts, cands, rows := decodeSubsetCase(data)
		if len(cands) == 0 {
			return
		}
		tree := Build(cands, opts...)
		root := tree.pointerTree()
		m := tree.NewMatcher()
		for i, row := range rows {
			assertParity(t, fmt.Sprintf("row %d", i), tree, root, m, row.Items)
		}
		want := make([]int, len(cands))
		for _, row := range rows {
			for i, c := range cands {
				if row.Items.ContainsAll(c) {
					want[i]++
				}
			}
		}
		if got, _ := tree.CountSupports(rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("CountSupports %v, ContainsAll scan %v", got, want)
		}
	})
}
