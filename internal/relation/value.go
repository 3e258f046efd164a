// Package relation provides the in-memory relational substrate used by every
// declarative component of the system: typed values, schemas, tuples and
// relations with hash indexes. Both the Datalog engine and the mini-SQL
// engine evaluate over these relations, and the scheduler's pending-request
// and history stores are relations too, exactly as the paper proposes
// ("treat sets of requests as data collections").
//
// A Value is 16 bytes and holds no pointer, so a tuple's backing array, a
// region chunk or a request's row is memory the garbage collector never
// scans. A string value holds a symbol: the id of its string in one
// process-wide intern table (dictionary encoding, as in column stores and
// Soufflé's symbol table), so equality and hashing read the id alone and
// only ordering two different strings looks them up. The table keeps one
// entry per distinct string ever passed to String, for the life of the
// process: the letters of the request operations, constants in rule and
// query texts, SLA class names and the cells of relations loaded from CSV.
// Nothing on a round's path interns, so the table does not grow with
// requests, rounds or facts. String is safe for concurrent use and interns
// under a lock; every lookup of a symbol's string (AsString, String,
// Encode, Compare) is lock-free.
package relation

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	i    int64 // the integer, or a string's symbol id; 0 for NULL
}

// symbols is the intern table behind string values. An id indexes strs;
// strs only grows, by an append under mu followed by a Store of the new
// header, so a reader that loads the header may read any id below its length
// without a lock, and an id handed to another goroutine arrives with a
// header that covers it (the Store happens before whatever passes it on).
var symbols struct {
	mu   sync.Mutex
	ids  map[string]int64
	strs atomic.Pointer[[]string]
}

// symbol returns the string of symbol id.
func symbol(id int64) string { return (*symbols.strs.Load())[id] }

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// String returns a string value, interning s if it is new. Call it when
// rules, queries or data are loaded, not per row: it takes a lock.
func String(s string) Value {
	symbols.mu.Lock()
	defer symbols.mu.Unlock()
	id, ok := symbols.ids[s]
	if !ok {
		if symbols.ids == nil {
			symbols.ids = make(map[string]int64)
		}
		var strs []string
		if p := symbols.strs.Load(); p != nil {
			strs = *p
		}
		// Clone: s may be a slice of a whole rule text or input line,
		// which the table would otherwise keep alive.
		s = strings.Clone(s)
		id = int64(len(strs))
		strs = append(strs, s)
		symbols.ids[s] = id
		symbols.strs.Store(&strs)
	}
	return Value{kind: KindString, i: id}
}

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
	return symbol(v.i)
}

// Equal reports whether two values are identical (same kind and payload).
// NULL equals NULL under this predicate; SQL three-valued logic is handled a
// level up, in the mini-SQL executor. Strings are interned, so two string
// values are equal exactly when their symbols are.
func (v Value) Equal(o Value) bool { return v == o }

// Compare orders values: NULL < ints < strings, ints numerically, strings
// lexicographically. Returns -1, 0 or +1. Only two different strings are
// looked up; an equality test should call Equal, which never does.
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
		if v.i == o.i {
			return 0
		}
		return strings.Compare(symbol(v.i), symbol(o.i))
	}
}

// FNV-1a constants, shared by every hash path in the system (values, tuples,
// fact-set buckets, join build keys).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// symbolTag is mixed into a symbol's id before hashing, so that a string
// and the int equal to its id do not collide by construction.
const symbolTag uint64 = 0x9e3779b97f4a7c15

// Hash returns a stable hash of the value. It is the allocation-free inner
// loop of every hash index and dedup set, with no hasher object and no
// lookup: one murmur3 fmix64 finalizer over the payload, an int's value or a
// string's symbol id tagged by symbolTag (NULL hashes as one fixed word).
// The flat tables mask the low bits, which fmix64 spreads for sequential
// ids too. The hash is in-memory only: a symbol's id depends on the order in
// which strings were first interned, so nothing persisted or sent on the
// wire depends on it.
func (v Value) Hash() uint64 {
	h := fnvOffset
	switch v.kind {
	case KindNull:
		return h * fnvPrime
	case KindInt:
		h = uint64(v.i)
	default:
		h = uint64(v.i) ^ symbolTag
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
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
		return symbol(v.i)
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
		return strconv.Quote(symbol(v.i))
	}
}
