// Package shuffle is the one shuffle both engines run: the key/value record
// and its pricing, the hash that routes a key to its reduce partition, and
// the merge of key-sorted runs. RDD's ReduceByKey and MapReduce's tasks, in
// the simulator and on real workers, move their data through it.
package shuffle

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"strconv"
)

// Pair is a key/value record, the currency of shuffle operations.
type Pair[K cmp.Ordered, V any] struct {
	Key   K
	Value V
}

// Sizer lets record types report their serialized size to the shuffle and
// collect cost models.
type Sizer interface {
	SizeBytes() int64
}

// SizeBytes estimates the pair's serialized size from its components.
func (p Pair[K, V]) SizeBytes() int64 {
	return valueBytes(p.Key) + valueBytes(p.Value)
}

// valueBytes estimates the wire size of a single value.
func valueBytes(v any) int64 {
	switch x := v.(type) {
	case Sizer:
		return x.SizeBytes()
	case string:
		return int64(len(x)) + 4
	case []byte:
		return int64(len(x)) + 4
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	default:
		return 8
	}
}

// Pricer prices values of one type exactly as Pair.SizeBytes prices a
// component, without boxing each value: the type is inspected once, so a
// fixed-size kind is a constant and only Sizers, strings and byte slices
// are read value by value.
type Pricer[T any] struct {
	fixed int64          // every value's size, when each is nil
	each  func(*T) int64 // one value's size; nil for fixed-size kinds
}

// NewPricer returns the Pricer for T.
func NewPricer[T any]() Pricer[T] {
	var zero T
	switch any(zero).(type) {
	case nil: // an interface type: each value's dynamic type decides
		return Pricer[T]{each: func(v *T) int64 { return valueBytes(*v) }}
	case Sizer:
		if _, ok := any(&zero).(Sizer); ok {
			// *T has T's SizeBytes: call it through the pointer rather
			// than box a copy of the value.
			return Pricer[T]{each: func(v *T) int64 { return any(v).(Sizer).SizeBytes() }}
		}
		// T is a pointer with the method, and boxing a pointer is free.
		return Pricer[T]{each: func(v *T) int64 { return valueBytes(*v) }}
	case string:
		return Pricer[T]{each: func(v *T) int64 { return int64(len(*any(v).(*string))) + 4 }}
	case []byte:
		return Pricer[T]{each: func(v *T) int64 { return int64(len(*any(v).(*[]byte))) + 4 }}
	}
	return Pricer[T]{fixed: valueBytes(zero)}
}

// Size prices one value; v points into the caller's rows.
func (s Pricer[T]) Size(v *T) int64 {
	if s.each == nil {
		return s.fixed
	}
	return s.each(v)
}

// Total prices every value in vs.
func (s Pricer[T]) Total(vs []T) int64 {
	n := int64(len(vs)) * s.fixed
	if s.each != nil {
		for i := range vs {
			n += s.each(&vs[i])
		}
	}
	return n
}

// NewPairPricer prices Pair[K, V] as Pair.SizeBytes does, without boxing.
func NewPairPricer[K cmp.Ordered, V any]() Pricer[Pair[K, V]] {
	ks, vs := NewPricer[K](), NewPricer[V]()
	if ks.each == nil && vs.each == nil {
		return Pricer[Pair[K, V]]{fixed: ks.fixed + vs.fixed}
	}
	return Pricer[Pair[K, V]]{each: func(p *Pair[K, V]) int64 {
		return ks.Size(&p.Key) + vs.Size(&p.Value)
	}}
}

// FNV-1a 32-bit parameters (hash/fnv), inlined so the hot path can hash
// stack bytes without a hash.Hash allocation.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv1a[B string | []byte](h uint32, b B) uint32 {
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= fnvPrime32
	}
	return h
}

// HashKey deterministically hashes a key for partitioning; the result is
// stable across runs and platforms. Both engines route a key to partition
// HashKey(key) % parts, the modulo taken in uint32.
//
// The built-in kinds are formatted with strconv into a stack buffer and fed
// to an inlined FNV-1a — byte-identical input to the historical
// fmt.Fprintf(h, "%v", x) path (decimal for integers, shortest 'g' form for
// floats), so partition assignment and therefore virtual time are unchanged,
// without fmt's reflection or the hash.Hash allocation. Named types (e.g.
// itemset.Item) have a different dynamic type and keep the fmt fallback,
// whose %v output for an integer kind is the same decimal text.
func HashKey[K cmp.Ordered](k K) uint32 {
	var buf [32]byte
	switch x := any(k).(type) {
	case string:
		return fnv1a(fnvOffset32, x)
	case int:
		return fnv1a(fnvOffset32, strconv.AppendInt(buf[:0], int64(x), 10))
	case int8:
		return fnv1a(fnvOffset32, strconv.AppendInt(buf[:0], int64(x), 10))
	case int16:
		return fnv1a(fnvOffset32, strconv.AppendInt(buf[:0], int64(x), 10))
	case int32:
		return fnv1a(fnvOffset32, strconv.AppendInt(buf[:0], int64(x), 10))
	case int64:
		return fnv1a(fnvOffset32, strconv.AppendInt(buf[:0], x, 10))
	case uint:
		return fnv1a(fnvOffset32, strconv.AppendUint(buf[:0], uint64(x), 10))
	case uint8:
		return fnv1a(fnvOffset32, strconv.AppendUint(buf[:0], uint64(x), 10))
	case uint16:
		return fnv1a(fnvOffset32, strconv.AppendUint(buf[:0], uint64(x), 10))
	case uint32:
		return fnv1a(fnvOffset32, strconv.AppendUint(buf[:0], uint64(x), 10))
	case uint64:
		return fnv1a(fnvOffset32, strconv.AppendUint(buf[:0], x, 10))
	case uintptr:
		return fnv1a(fnvOffset32, strconv.AppendUint(buf[:0], uint64(x), 10))
	case float32:
		return fnv1a(fnvOffset32, strconv.AppendFloat(buf[:0], float64(x), 'g', -1, 32))
	case float64:
		return fnv1a(fnvOffset32, strconv.AppendFloat(buf[:0], x, 'g', -1, 64))
	default:
		return hashKeyFmt(k)
	}
}

// hashKeyFmt is HashKey's fallback for named key types: FNV-1a over fmt's
// %v text. It takes K, not HashKey's switched-on interface, so that
// interface never escapes and the built-in kinds are hashed without boxing.
func hashKeyFmt[K cmp.Ordered](k K) uint32 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%v", k)
	return h.Sum32()
}
