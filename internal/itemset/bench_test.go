package itemset

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func benchSets() (Itemset, []Itemset) {
	rng := rand.New(rand.NewSource(1))
	big := make([]Item, 40)
	for i := range big {
		big[i] = Item(rng.Intn(500))
	}
	tx := New(big...)
	subs := make([]Itemset, 64)
	for i := range subs {
		s := make([]Item, 4)
		for j := range s {
			s[j] = Item(rng.Intn(500))
		}
		subs[i] = New(s...)
	}
	return tx, subs
}

func BenchmarkContainsAll(b *testing.B) {
	tx, subs := benchSets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.ContainsAll(subs[i%len(subs)])
	}
}

func BenchmarkKey(b *testing.B) {
	tx, _ := benchSets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tx.Key()
	}
}

func BenchmarkCanonical(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	raw := make([]Item, 64)
	for i := range raw {
		raw[i] = Item(rng.Intn(100))
	}
	buf := make(Itemset, len(raw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, raw)
		Canonical(buf)
	}
}

// chessRow is a .dat row shaped like Chess's: 37 ascending items of one or
// two digits.
func chessRow() string {
	fields := make([]string, 37)
	for i := range fields {
		fields[i] = strconv.Itoa(1 + 2*i)
	}
	return strings.Join(fields, " ")
}

func BenchmarkParseLine(b *testing.B) {
	line := chessRow()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseLine(line); err != nil {
			b.Fatal(err)
		}
	}
}
