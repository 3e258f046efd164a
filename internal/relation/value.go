// Package relation provides the in-memory relational substrate used by every
// declarative component of the system: typed values, schemas, tuples and
// relations with hash indexes. Both the Datalog engine and the mini-SQL
// engine evaluate over these relations, and the scheduler's pending-request
// and history stores are relations too, exactly as the paper proposes
// ("treat sets of requests as data collections").
package relation

import (
	"fmt"
	"strconv"
)

// Kind is the dynamic type of a Value.
type Kind uint8

const (
	// KindNull is the absence of a value (used by outer joins).
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindString is an immutable string.
	KindString
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; it panics if v is not an int.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("relation: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsString returns the string payload; it panics if v is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("relation: AsString on %s value", v.kind))
	}
	return v.s
}

// Equal reports whether two values are identical (same kind and payload).
// NULL equals NULL under this predicate; SQL three-valued logic is handled a
// level up, in the mini-SQL executor.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindInt:
		return v.i == o.i
	default:
		return v.s == o.s
	}
}

// Compare orders values: NULL < ints < strings, ints numerically, strings
// lexicographically. Returns -1, 0 or +1.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindInt:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	default:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		}
		return 0
	}
}

// FNV-1a constants, shared by every hash path in the system (values, tuples,
// fact-set buckets, join build keys).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Hash returns a stable hash of the value. It is the allocation-free inner
// loop of every hash index and dedup set, with no hasher object and no string
// building: an int is one murmur3 fmix64 finalizer over its payload, a
// string FNV-1a over a kind tag and its bytes. The flat tables mask the low
// bits, which fmix64 spreads for sequential ids too. The hash is seedless and
// in-memory only: nothing persisted or sent on the wire depends on it.
func (v Value) Hash() uint64 {
	h := fnvOffset
	switch v.kind {
	case KindNull:
		h = (h ^ 0) * fnvPrime
	case KindInt:
		h = uint64(v.i)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
	default:
		h = (h ^ 2) * fnvPrime
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * fnvPrime
		}
	}
	return h
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	default:
		return v.s
	}
}

// Encode renders the value unambiguously for printed rules and plans: strings
// quoted (strconv.Quote), ints bare, NULL as the literal NULL.
func (v Value) Encode() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	default:
		return strconv.Quote(v.s)
	}
}
