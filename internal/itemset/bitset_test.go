package itemset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bit reports whether bit i of b is set; out-of-range bits read as clear.
func bit(b *Bitset, i int) bool {
	return i >= 0 && i < b.n && b.words[i/64]&(1<<(i%64)) != 0
}

// support counts the transactions of v that hold every item of s, ANDing
// the item bitsets with AndCountInto. The empty itemset is in every
// transaction; an item outside the universe is in none.
func support(v *VerticalBitmap, s Itemset) int {
	if len(s) == 0 {
		return v.Transactions
	}
	for _, it := range s {
		if int(it) >= len(v.Items) {
			return 0
		}
	}
	acc := NewBitset(v.Transactions)
	n := acc.AndCountInto(v.Items[s[0]], v.Items[s[0]])
	for _, it := range s[1:] {
		n = acc.AndCountInto(acc, v.Items[it])
	}
	return n
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130) // spans three words
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !bit(b, i) {
			t.Errorf("bit %d not set", i)
		}
	}
	for _, i := range []int{1, 62, 65, 128} {
		if bit(b, i) {
			t.Errorf("bit %d unexpectedly set", i)
		}
	}
	if got := b.AndCount(b); got != 4 {
		t.Fatalf("popcount = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Set did not panic")
		}
	}()
	b.Set(130)
}

func TestBitsetAndOperations(t *testing.T) {
	a, b := NewBitset(100), NewBitset(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	want := 0
	for i := 0; i < 100; i += 6 {
		want++
	}
	if got := a.AndCount(b); got != want {
		t.Fatalf("AndCount = %d, want %d", got, want)
	}
	fused := NewBitset(100)
	if got := fused.AndCountInto(a, b); got != want {
		t.Fatalf("AndCountInto = %d, want %d", got, want)
	}
	for i := 0; i < 100; i++ {
		if got, wantBit := bit(fused, i), i%6 == 0; got != wantBit {
			t.Fatalf("AndCountInto bit %d = %v, want %v", i, got, wantBit)
		}
	}
	if a.Words() != 2 || NewBitset(0).Words() != 0 {
		t.Fatalf("Words = %d (want 2 for 100 bits)", a.Words())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	a.AndCount(NewBitset(50))
}

// randomBitset returns an n-bit bitset whose bits are each set with
// probability density.
func randomBitset(rng *rand.Rand, n int, density float64) *Bitset {
	b := NewBitset(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

// clone returns a copy of b with its own words.
func clone(b *Bitset) *Bitset {
	return &Bitset{words: append([]uint64(nil), b.words...), n: b.n}
}

// TestAndKernelsMatchBitByBitReference checks AndCount and AndCountInto
// against a bit-by-bit reference on random bitsets at word edges and past
// them, from empty to full, including AndCountInto's in-place forms and a
// destination that held other bits before.
func TestAndKernelsMatchBitByBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	for _, n := range []int{0, 1, 63, 64, 65, 130, 1000} {
		for _, density := range []float64{0, 0.05, 0.5, 0.95, 1} {
			a, b := randomBitset(rng, n, density), randomBitset(rng, n, 0.5)
			want := 0
			for i := 0; i < n; i++ {
				if bit(a, i) && bit(b, i) {
					want++
				}
			}
			if got := a.AndCount(b); got != want {
				t.Fatalf("n=%d density=%v: AndCount = %d, want %d", n, density, got, want)
			}
			fresh, inA, inOther := randomBitset(rng, n, 0.5), clone(a), clone(b)
			for _, c := range []struct {
				form string
				dst  *Bitset
				run  func() int
			}{
				{"fresh", fresh, func() int { return fresh.AndCountInto(a, b) }},
				{"into a", inA, func() int { return inA.AndCountInto(inA, b) }},
				{"into other", inOther, func() int { return inOther.AndCountInto(a, inOther) }},
			} {
				form, dst, got := c.form, c.dst, c.run()
				if got != want {
					t.Fatalf("n=%d density=%v %s: AndCountInto = %d, want %d", n, density, form, got, want)
				}
				for i := 0; i < n; i++ {
					if bit(dst, i) != (bit(a, i) && bit(b, i)) {
						t.Fatalf("n=%d density=%v %s: AndCountInto bit %d = %v", n, density, form, i, bit(dst, i))
					}
				}
			}
		}
	}
}

// TestAndCountIntoSizeMismatchPanics checks that AndCountInto refuses
// operands or a destination of another capacity, even one with as many
// words.
func TestAndCountIntoSizeMismatchPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"operands":    func() { NewBitset(100).AndCountInto(NewBitset(100), NewBitset(50)) },
		"destination": func() { NewBitset(120).AndCountInto(NewBitset(100), NewBitset(100)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s size mismatch did not panic", name)
				}
			}()
			call()
		}()
	}
}

func TestVerticalSupport(t *testing.T) {
	db := NewDB("v", [][]Item{
		{1, 2, 3}, {1, 2}, {2, 3}, {1, 3}, {4},
	})
	v := db.Vertical()
	cases := []struct {
		set  Itemset
		want int
	}{
		{New(), 5},
		{New(1), 3},
		{New(2), 3},
		{New(1, 2), 2},
		{New(1, 2, 3), 1},
		{New(4), 1},
		{New(1, 4), 0},
		{New(99), 0}, // out of universe
	}
	for _, c := range cases {
		if got := support(v, c.set); got != c.want {
			t.Errorf("Support(%v) = %d, want %d", c.set, got, c.want)
		}
	}
}

// Property: support ANDed from the vertical layout's item bitsets equals
// direct subset counting on random data.
func TestVerticalSupportMatchesScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]Item, rng.Intn(40)+5)
		for i := range rows {
			n := rng.Intn(6) + 1
			for j := 0; j < n; j++ {
				rows[i] = append(rows[i], Item(rng.Intn(10)))
			}
		}
		db := NewDB("rand", rows)
		v := db.Vertical()
		for trial := 0; trial < 10; trial++ {
			var items []Item
			for j := rng.Intn(4); j >= 0; j-- {
				items = append(items, Item(rng.Intn(10)))
			}
			s := New(items...)
			direct := 0
			for _, tr := range db.Transactions {
				if tr.Items.ContainsAll(s) {
					direct++
				}
			}
			if support(v, s) != direct {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
