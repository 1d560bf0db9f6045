package shuffle

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

// ptrSized implements Sizer on its pointer, so a *ptrSized record is a
// Sizer and a ptrSized one is not.
type ptrSized struct{ n int64 }

func (p *ptrSized) SizeBytes() int64 { return p.n }

type (
	namedInt    int32
	namedString string
)

// tidFrag is a value whose serialized size varies with its length, like
// RDD-Eclat's tidlists.
type tidFrag []int32

func (f tidFrag) SizeBytes() int64 { return int64(4*len(f)) + 4 }

// checkPricer asserts the Pricer built for T prices every value as
// valueBytes does.
func checkPricer[T any](t *testing.T, vs ...T) {
	t.Helper()
	s := NewPricer[T]()
	var want int64
	for i := range vs {
		if got, w := s.Size(&vs[i]), valueBytes(vs[i]); got != w {
			t.Fatalf("%T %v: size %d, valueBytes %d", vs[i], vs[i], got, w)
		}
		want += valueBytes(vs[i])
	}
	if got := s.Total(vs); got != want {
		t.Fatalf("%T: total %d, want %d", vs, got, want)
	}
}

func TestPricerMatchesValueBytes(t *testing.T) {
	checkPricer(t, 0, -7, math.MaxInt)
	checkPricer[int8](t, 1, -1)
	checkPricer[uint8](t, 0, 255)
	checkPricer[int16](t, 300)
	checkPricer[uint16](t, 300)
	checkPricer[int32](t, -5, 5)
	checkPricer[uint32](t, 5)
	checkPricer[int64](t, 5)
	checkPricer[uint64](t, 5)
	checkPricer[float32](t, 0.5)
	checkPricer(t, 0.5, 1e300)
	checkPricer(t, true, false)
	checkPricer(t, "", "a", "a longer string")
	checkPricer(t, []byte(nil), []byte("bytes"))
	checkPricer[namedInt](t, 3)          // a named kind takes valueBytes' default
	checkPricer[namedString](t, "named") // likewise, whatever its length
	checkPricer(t, tidFrag(nil), tidFrag{1, 2, 3})
	checkPricer(t, &ptrSized{3}, &ptrSized{40})
	checkPricer(t, ptrSized{3})
	checkPricer[any](t, nil, 1, "four", tidFrag{1}, &ptrSized{9}, int8(2))
	checkPricer(t, []int32{1, 2})

	pairs := []Pair[string, tidFrag]{{Key: "a", Value: tidFrag{1}}, {Key: "bcd"}, {Value: tidFrag{1, 2, 3, 4}}}
	checkPricer(t, pairs...)
	ps := NewPairPricer[string, tidFrag]()
	for i := range pairs {
		if got, want := ps.Size(&pairs[i]), pairs[i].SizeBytes(); got != want {
			t.Fatalf("pair %v: size %d, SizeBytes %d", pairs[i], got, want)
		}
	}
	fixed := NewPairPricer[int32, int]()
	if fixed.each != nil || fixed.fixed != (Pair[int32, int]{}).SizeBytes() {
		t.Fatalf("Pair[int32, int] pricer %+v, want fixed %d", fixed, (Pair[int32, int]{}).SizeBytes())
	}
}

// refHashKey is the pre-optimisation HashKey: FNV-1a over fmt's %v
// rendering. The fast path must be byte-identical to it for every key kind,
// or partition assignment (and therefore virtual time) would change.
func refHashKey(v any) uint32 {
	h := fnv.New32a()
	switch x := v.(type) {
	case string:
		h.Write([]byte(x))
	default:
		fmt.Fprintf(h, "%v", x)
	}
	return h.Sum32()
}

func TestHashKeyParity(t *testing.T) {
	if got, want := HashKey("hello"), refHashKey("hello"); got != want {
		t.Fatalf("string: %d != %d", got, want)
	}
	for _, v := range []int64{0, 1, -1, 42, -37, math.MaxInt64, math.MinInt64} {
		if HashKey(int(v)) != refHashKey(int(v)) {
			t.Fatalf("int %d diverges", v)
		}
		if HashKey(v) != refHashKey(v) {
			t.Fatalf("int64 %d diverges", v)
		}
		if HashKey(int8(v)) != refHashKey(int8(v)) {
			t.Fatalf("int8 %d diverges", int8(v))
		}
		if HashKey(int16(v)) != refHashKey(int16(v)) {
			t.Fatalf("int16 %d diverges", int16(v))
		}
		if HashKey(int32(v)) != refHashKey(int32(v)) {
			t.Fatalf("int32 %d diverges", int32(v))
		}
	}
	for _, v := range []uint64{0, 1, 255, 1 << 40, math.MaxUint64} {
		if HashKey(uint(v)) != refHashKey(uint(v)) {
			t.Fatalf("uint %d diverges", v)
		}
		if HashKey(v) != refHashKey(v) {
			t.Fatalf("uint64 %d diverges", v)
		}
		if HashKey(uint8(v)) != refHashKey(uint8(v)) {
			t.Fatalf("uint8 %d diverges", uint8(v))
		}
		if HashKey(uint16(v)) != refHashKey(uint16(v)) {
			t.Fatalf("uint16 %d diverges", uint16(v))
		}
		if HashKey(uint32(v)) != refHashKey(uint32(v)) {
			t.Fatalf("uint32 %d diverges", uint32(v))
		}
		if HashKey(uintptr(v)) != refHashKey(uintptr(v)) {
			t.Fatalf("uintptr %d diverges", uintptr(v))
		}
	}
	for _, v := range []float64{0, 1, -1, 0.5, 1e300, -1e-300, 3.14159265358979,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		if HashKey(v) != refHashKey(v) {
			t.Fatalf("float64 %v diverges", v)
		}
		if HashKey(float32(v)) != refHashKey(float32(v)) {
			t.Fatalf("float32 %v diverges", float32(v))
		}
	}
	// Named types take the fmt fallback in both implementations.
	type myKey int32
	if HashKey(myKey(7)) != refHashKey(myKey(7)) {
		t.Fatal("named type diverges")
	}

	cases := []any{
		func(x int) bool { return HashKey(x) == refHashKey(x) },
		func(x int64) bool { return HashKey(x) == refHashKey(x) },
		func(x uint64) bool { return HashKey(x) == refHashKey(x) },
		func(x float64) bool { return HashKey(x) == refHashKey(x) },
		func(x string) bool { return HashKey(x) == refHashKey(x) },
	}
	for _, fn := range cases {
		if err := quick.Check(fn, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkHashKeyInt(b *testing.B) {
	b.ReportAllocs()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += HashKey(i)
	}
	_ = sink
}

func BenchmarkHashKeyString(b *testing.B) {
	b.ReportAllocs()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += HashKey("transaction-key")
	}
	_ = sink
}
