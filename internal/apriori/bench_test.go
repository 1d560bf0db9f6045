package apriori

import (
	"testing"

	"yafim/internal/datagen"
	"yafim/internal/itemset"
)

func benchDB(b *testing.B) *itemset.DB {
	b.Helper()
	db, err := datagen.MushroomLike(0.25, 1)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkGen(b *testing.B) {
	// A realistically sized L2 drives the join+prune loop.
	var l2 []itemset.Itemset
	for a := itemset.Item(0); a < 60; a++ {
		for c := a + 1; c < 60; c += 3 {
			l2 = append(l2, itemset.New(a, c))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Gen(l2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineHashTree(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(db, 0.35, Options{Counting: HashTreeCounting}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineBruteForce(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(db, 0.35, Options{Counting: BruteForceCounting}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineBitmap(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(db, 0.35, Options{Counting: BitmapCounting}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineTrie(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(db, 0.35, Options{Counting: TrieCounting}); err != nil {
			b.Fatal(err)
		}
	}
}
