package itemset

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewCanonicalises(t *testing.T) {
	s := New(5, 1, 3, 1, 5)
	want := Itemset{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("New(5,1,3,1,5) = %v, want %v", s, want)
	}
}

func TestNewEmpty(t *testing.T) {
	if s := New(); s.Len() != 0 {
		t.Fatalf("New() = %v, want empty", s)
	}
}

func TestContains(t *testing.T) {
	s := New(2, 4, 6, 8)
	for _, it := range []Item{2, 4, 6, 8} {
		if !s.Contains(it) {
			t.Errorf("Contains(%d) = false, want true", it)
		}
	}
	for _, it := range []Item{1, 3, 5, 7, 9, 0} {
		if s.Contains(it) {
			t.Errorf("Contains(%d) = true, want false", it)
		}
	}
}

func TestContainsAll(t *testing.T) {
	s := New(1, 2, 3, 5, 8, 13)
	cases := []struct {
		sub  Itemset
		want bool
	}{
		{New(), true},
		{New(1), true},
		{New(13), true},
		{New(2, 8), true},
		{New(1, 2, 3, 5, 8, 13), true},
		{New(4), false},
		{New(1, 4), false},
		{New(13, 14), false},
		{New(0, 1), false},
	}
	for _, c := range cases {
		if got := s.ContainsAll(c.sub); got != c.want {
			t.Errorf("ContainsAll(%v) = %v, want %v", c.sub, got, c.want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Itemset
		want int
	}{
		{New(), New(), 0},
		{New(), New(1), -1},
		{New(1), New(), 1},
		{New(1, 2), New(1, 2), 0},
		{New(1, 2), New(1, 3), -1},
		{New(2), New(1, 9), 1},
		{New(1, 2), New(1, 2, 3), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestExtend(t *testing.T) {
	s := New(1, 3)
	got := s.Extend(7)
	if !got.Equal(New(1, 3, 7)) {
		t.Fatalf("Extend = %v", got)
	}
	if !s.Equal(New(1, 3)) {
		t.Fatalf("Extend mutated receiver: %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Extend with out-of-order item did not panic")
		}
	}()
	s.Extend(2)
}

func TestWithout(t *testing.T) {
	s := New(1, 3, 7)
	if got := s.Without(1); !got.Equal(New(1, 7)) {
		t.Fatalf("Without(1) = %v", got)
	}
	if got := s.Without(0); !got.Equal(New(3, 7)) {
		t.Fatalf("Without(0) = %v", got)
	}
	if !s.Equal(New(1, 3, 7)) {
		t.Fatalf("Without mutated receiver: %v", s)
	}
}

// fromKey decodes an itemset encoded with Key.
func fromKey(key string) Itemset {
	s := make(Itemset, len(key)/4)
	for i := range s {
		s[i] = Item(binary.BigEndian.Uint32([]byte(key[4*i : 4*i+4])))
	}
	return s
}

func TestKeyRoundTrip(t *testing.T) {
	sets := []Itemset{New(), New(0), New(1, 2, 3), New(1 << 20)}
	for _, s := range sets {
		if got := fromKey(s.Key()); len(s.Key()) != 4*len(s) || !got.Equal(s) {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
}

func TestKeyOrderMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a := randomSet(rng)
		b := randomSet(rng)
		cmp := a.Compare(b)
		kcmp := strings.Compare(a.Key(), b.Key())
		if (cmp < 0) != (kcmp < 0) || (cmp == 0) != (kcmp == 0) {
			t.Fatalf("Compare(%v,%v)=%d but key compare=%d", a, b, cmp, kcmp)
		}
	}
}

func TestString(t *testing.T) {
	if got := New(3, 1, 2).String(); got != "{1 2 3}" {
		t.Fatalf("String = %q", got)
	}
	if got := New().String(); got != "{}" {
		t.Fatalf("String = %q", got)
	}
}

func TestSortSets(t *testing.T) {
	sets := []Itemset{New(2, 3), New(1), New(1, 5), New(1, 2)}
	SortSets(sets)
	want := []Itemset{New(1), New(1, 2), New(1, 5), New(2, 3)}
	for i := range want {
		if !sets[i].Equal(want[i]) {
			t.Fatalf("SortSets[%d] = %v, want %v", i, sets[i], want[i])
		}
	}
}

func randomSet(rng *rand.Rand) Itemset {
	n := rng.Intn(6)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item(rng.Intn(50))
	}
	return New(items...)
}

// Property: Canonical output is always sorted and duplicate free, and
// contains exactly the distinct input items.
func TestCanonicalProperty(t *testing.T) {
	f := func(raw []int16) bool {
		items := make([]Item, len(raw))
		for i, v := range raw {
			if v < 0 {
				v = -v
			}
			items[i] = Item(v)
		}
		s := New(items...)
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
			return false
		}
		distinct := make(map[Item]struct{})
		for _, it := range items {
			distinct[it] = struct{}{}
		}
		if len(s) != len(distinct) {
			return false
		}
		for _, it := range s {
			if _, ok := distinct[it]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ContainsAll agrees with a naive map-based subset check.
func TestContainsAllProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		as := make([]Item, len(a))
		for i, v := range a {
			as[i] = Item(v)
		}
		bs := make([]Item, len(b))
		for i, v := range b {
			bs[i] = Item(v)
		}
		s, sub := New(as...), New(bs...)
		naive := true
		m := make(map[Item]struct{}, len(s))
		for _, it := range s {
			m[it] = struct{}{}
		}
		for _, it := range sub {
			if _, ok := m[it]; !ok {
				naive = false
				break
			}
		}
		return s.ContainsAll(sub) == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Key is injective on canonical itemsets.
func TestKeyInjectiveProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		as := make([]Item, len(a))
		for i, v := range a {
			as[i] = Item(v)
		}
		bs := make([]Item, len(b))
		for i, v := range b {
			bs[i] = Item(v)
		}
		sa, sb := New(as...), New(bs...)
		return (sa.Key() == sb.Key()) == sa.Equal(sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDBBasics(t *testing.T) {
	db := NewDB("toy", [][]Item{{3, 1, 3}, {2}, {}, {5, 4}})
	if db.Len() != 4 {
		t.Fatalf("Len = %d", db.Len())
	}
	if db.NumItems() != 6 {
		t.Fatalf("NumItems = %d, want 6", db.NumItems())
	}
	if got := db.Transactions[0].Items; !got.Equal(New(1, 3)) {
		t.Fatalf("transaction 0 = %v", got)
	}
	for i, tr := range db.Transactions {
		if tr.TID != int64(i) {
			t.Fatalf("TID[%d] = %d", i, tr.TID)
		}
	}
}

func TestMinSupportCount(t *testing.T) {
	db := NewDB("toy", make([][]Item, 10))
	cases := []struct {
		rel  float64
		want int
	}{
		{0, 1},
		{0.1, 1},
		{0.15, 2},
		{0.5, 5},
		{1, 10},
		{0.33, 4},
	}
	for _, c := range cases {
		if got := db.MinSupportCount(c.rel); got != c.want {
			t.Errorf("MinSupportCount(%v) = %d, want %d", c.rel, got, c.want)
		}
		if got := MinSupportCount(c.rel, 10); got != c.want {
			t.Errorf("MinSupportCount(%v, 10) = %d, want %d", c.rel, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MinSupportCount(1.5) did not panic")
		}
	}()
	db.MinSupportCount(1.5)
}

func TestParseLine(t *testing.T) {
	cases := []struct {
		in   string
		want Itemset
		bad  string // the field a failing line's error quotes
	}{
		{"1 2 3", New(1, 2, 3), ""},
		{"  7   5 ", New(5, 7), ""},
		{"4\t2", New(2, 4), ""},
		{"42", New(42), ""},
		{"", New(), ""},
		{"3 3 3", New(3), ""},
		{"1 2\r", New(1, 2), ""},
		{"3\r1", New(1, 3), ""},
		{"\r", New(), ""},
		{"007 7", New(7), ""},
		{"2147483647", New(2147483647), ""},
		{"2147483648", nil, "2147483648"},
		{"99999999999999999999", nil, "99999999999999999999"},
		{"1 -2", nil, "-2"},
		{"+5", nil, "+5"},
		{"a b", nil, "a"},
		{"1 oops 3", nil, "oops"},
		{"12x 3", nil, "12x"},
		{"1\v2", nil, "1\v2"},
		{"1 2\n", nil, "2\n"},
	}
	for _, c := range cases {
		got, err := ParseLine(c.in)
		if c.bad != "" {
			// A bad field fails the line with the field quoted and
			// strconv's verdict on it wrapped.
			var ne *strconv.NumError
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.bad)) || !errors.As(err, &ne) {
				t.Errorf("ParseLine(%q) err = %v, want one quoting %q and wrapping a *strconv.NumError", c.in, err, c.bad)
			}
			continue
		}
		if err != nil || !got.Equal(c.want) {
			t.Errorf("ParseLine(%q) = %v, %v, want %v", c.in, got, err, c.want)
		}
	}
}

func TestReplicate(t *testing.T) {
	db := NewDB("toy", [][]Item{{1}, {2, 3}})
	r := db.Replicate(3)
	if r.Len() != 6 {
		t.Fatalf("replicated Len = %d", r.Len())
	}
	for i, tr := range r.Transactions {
		if tr.TID != int64(i) {
			t.Fatalf("TID[%d] = %d", i, tr.TID)
		}
		if want := db.Transactions[i%2].Items; !tr.Items.Equal(want) {
			t.Fatalf("transaction %d = %v, want %v", i, tr.Items, want)
		}
	}
	if r.NumItems() != db.NumItems() {
		t.Fatalf("NumItems changed: %d vs %d", r.NumItems(), db.NumItems())
	}
}

func TestComputeStats(t *testing.T) {
	db := NewDB("toy", [][]Item{{1, 2, 3}, {1}, {2, 3}})
	st := db.ComputeStats()
	if st.NumItems != 3 || st.NumTransactions != 3 || st.MaxLength != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if got, want := st.AvgLength, 2.0; got != want {
		t.Fatalf("AvgLength = %v", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	db := NewDB("toy", [][]Item{{10, 2}, {7}, {100, 200, 300}})
	var sb strings.Builder
	n, err := db.WriteTo(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(sb.String())) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, len(sb.String()))
	}
	if n != db.TotalBytes() {
		t.Fatalf("TotalBytes = %d, actual %d", db.TotalBytes(), n)
	}
	back, err := ReadDB("toy", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collectItems(back), collectItems(db)) {
		t.Fatalf("round trip mismatch: %v vs %v", collectItems(back), collectItems(db))
	}
}

func TestReadDBErrors(t *testing.T) {
	if _, err := ReadDB("bad", strings.NewReader("1 2 x\n")); err == nil {
		t.Error("non-numeric item accepted")
	}
	if _, err := ReadDB("bad", strings.NewReader("1 -2\n")); err == nil {
		t.Error("negative item accepted")
	}
	// A blank line is the empty transaction, as it is to every engine that
	// reads the file as text splits.
	db, err := ReadDB("blank", strings.NewReader("\n\n1 2\n\n"))
	if err != nil || db.Len() != 4 {
		t.Errorf("blank lines: db=%v err=%v", db, err)
	}
}

// AppendLine extends dst with the line's canonical items, sorting only the
// appended tail, and leaves dst as it was when the line does not parse.
func TestAppendLine(t *testing.T) {
	dst := Itemset{9, 4}
	got, err := AppendLine(dst, "3 1 3\t2")
	if err != nil || !reflect.DeepEqual(got, Itemset{9, 4, 1, 2, 3}) {
		t.Fatalf("AppendLine = %v, %v", got, err)
	}
	got, err = AppendLine(got, "5 x")
	if err == nil || !reflect.DeepEqual(got, Itemset{9, 4, 1, 2, 3}) {
		t.Fatalf("AppendLine on a bad line = %v, %v", got, err)
	}
}

// ParseLine allocates once, for its result, on a row shaped like Chess's.
func TestParseLineAllocatesOnce(t *testing.T) {
	line := chessRow()
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseLine(line) }); n != 1 {
		t.Fatalf("ParseLine made %v allocations, want 1", n)
	}
}

func collectItems(db *DB) [][]Item {
	out := make([][]Item, db.Len())
	for i, t := range db.Transactions {
		out[i] = t.Items
	}
	return out
}
