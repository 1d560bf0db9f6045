package rdd

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

// recordBytes estimates the serialized size of any record.
func recordBytes[T any](v T) int64 {
	if s, ok := any(v).(Sizer); ok {
		return s.SizeBytes()
	}
	return valueBytes(v)
}

// FNV-1a 32-bit parameters (hash/fnv), inlined so the hot path can hash
// stack bytes without a hash.Hash allocation.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnv1a(h uint32, b []byte) uint32 {
	for _, c := range b {
		h ^= uint32(c)
		h *= fnvPrime32
	}
	return h
}

// hashKey deterministically hashes a key for partitioning; the result is
// stable across runs and platforms.
//
// The built-in kinds are formatted with strconv into a stack buffer and fed
// to an inlined FNV-1a — byte-identical input to the historical
// fmt.Fprintf(h, "%v", x) path (decimal for integers, shortest 'g' form for
// floats), so partition assignment and therefore virtual time are unchanged,
// without fmt's reflection or the hash.Hash allocation. Named types (e.g.
// itemset.Item) have a different dynamic type and keep the fmt fallback,
// whose %v output for an integer kind is the same decimal text.
func hashKey[K cmp.Ordered](k K) uint32 {
	var buf [32]byte
	switch x := any(k).(type) {
	case string:
		return fnv1a(fnvOffset32, []byte(x))
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
		h := fnv.New32a()
		fmt.Fprintf(h, "%v", x)
		return h.Sum32()
	}
}
