package rdd

import (
	"math"
	"testing"
)

// ptrSized implements Sizer on its pointer, so a *ptrSized record is a
// Sizer and a ptrSized one is not.
type ptrSized struct{ n int64 }

func (p *ptrSized) SizeBytes() int64 { return p.n }

type (
	namedInt    int32
	namedString string
)

// checkSizer asserts the sizer built for T prices every value as
// valueBytes does.
func checkSizer[T any](t *testing.T, vs ...T) {
	t.Helper()
	s := newSizer[T]()
	var want int64
	for i := range vs {
		if got, w := s.size(&vs[i]), valueBytes(vs[i]); got != w {
			t.Fatalf("%T %v: size %d, valueBytes %d", vs[i], vs[i], got, w)
		}
		want += valueBytes(vs[i])
	}
	if got := s.total(vs); got != want {
		t.Fatalf("%T: total %d, want %d", vs, got, want)
	}
}

func TestSizerMatchesValueBytes(t *testing.T) {
	checkSizer(t, 0, -7, math.MaxInt)
	checkSizer[int8](t, 1, -1)
	checkSizer[uint8](t, 0, 255)
	checkSizer[int16](t, 300)
	checkSizer[uint16](t, 300)
	checkSizer[int32](t, -5, 5)
	checkSizer[uint32](t, 5)
	checkSizer[int64](t, 5)
	checkSizer[uint64](t, 5)
	checkSizer[float32](t, 0.5)
	checkSizer(t, 0.5, 1e300)
	checkSizer(t, true, false)
	checkSizer(t, "", "a", "a longer string")
	checkSizer(t, []byte(nil), []byte("bytes"))
	checkSizer[namedInt](t, 3)          // a named kind takes valueBytes' default
	checkSizer[namedString](t, "named") // likewise, whatever its length
	checkSizer(t, tidFrag(nil), tidFrag{1, 2, 3})
	checkSizer(t, &ptrSized{3}, &ptrSized{40})
	checkSizer(t, ptrSized{3})
	checkSizer[any](t, nil, 1, "four", tidFrag{1}, &ptrSized{9}, int8(2))
	checkSizer(t, []int32{1, 2})

	pairs := []Pair[string, tidFrag]{{"a", tidFrag{1}}, {"bcd", nil}, {"", tidFrag{1, 2, 3, 4}}}
	checkSizer(t, pairs...)
	ps := newPairSizer[string, tidFrag]()
	for i := range pairs {
		if got, want := ps.size(&pairs[i]), pairs[i].SizeBytes(); got != want {
			t.Fatalf("pair %v: size %d, SizeBytes %d", pairs[i], got, want)
		}
	}
	fixed := newPairSizer[int32, int]()
	if fixed.each != nil || fixed.fixed != (Pair[int32, int]{}).SizeBytes() {
		t.Fatalf("Pair[int32, int] sizer %+v, want fixed %d", fixed, (Pair[int32, int]{}).SizeBytes())
	}
}
