package relation

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"unsafe"
)

// TestValueStaysSmall pins Value's layout: 16 bytes and no pointer, so a
// tuple's backing array, a region chunk and a request's row are noscan
// memory half the size of a Value that carried its string.
func TestValueStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 16 {
		t.Errorf("relation.Value is %d bytes, want 16", n)
	}
	if path, ok := pointerIn(reflect.TypeOf(Value{}), "Value"); ok {
		t.Errorf("relation.Value holds a pointer at %s", path)
	}
}

// pointerIn reports the first field of ty whose memory the garbage
// collector would scan.
func pointerIn(ty reflect.Type, path string) (string, bool) {
	switch ty.Kind() {
	case reflect.Struct:
		for i := 0; i < ty.NumField(); i++ {
			f := ty.Field(i)
			if p, ok := pointerIn(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Array:
		return pointerIn(ty.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", false
	default: // pointers, strings, slices, maps, channels, funcs, interfaces
		return path + " (" + ty.String() + ")", true
	}
}

// TestSymbolSemantics: interned strings keep the semantics a string payload
// had — equality and hashing by content, lexicographic order across distinct
// symbols whatever order they were interned in, NULL < int < string — and
// String, Encode and AsString give back the interned text.
func TestSymbolSemantics(t *testing.T) {
	// Interned in reverse order, so ids and lexicographic order disagree.
	words := []string{"zz", "z", "ya", "w", "r", "c", "b", "a", "", "\x00"}
	vals := make([]Value, len(words))
	for i, w := range words {
		vals[i] = String(w)
	}
	for i, a := range words {
		va := vals[i]
		if again := String(string([]byte(a))); again != va || !again.Equal(va) || again.Hash() != va.Hash() {
			t.Errorf("String(%q) twice: %v and %v (hashes %x, %x)", a, va, again, va.Hash(), again.Hash())
		}
		if va.AsString() != a || va.String() != a || va.Encode() != strconv.Quote(a) {
			t.Errorf("%q reads back as %q, displays %q, encodes %s", a, va.AsString(), va.String(), va.Encode())
		}
		if c := Null().Compare(va); c != -1 {
			t.Errorf("NULL vs %q: %d, want -1", a, c)
		}
		if c := Int(1 << 62).Compare(va); c != -1 {
			t.Errorf("int vs %q: %d, want -1", a, c)
		}
		if c := va.Compare(Int(-1)); c != 1 {
			t.Errorf("%q vs int: %d, want 1", a, c)
		}
		for j, b := range words {
			vb := vals[j]
			want := 0
			switch {
			case a < b:
				want = -1
			case a > b:
				want = 1
			}
			if got := va.Compare(vb); got != want {
				t.Errorf("Compare(%q, %q) = %d, want %d", a, b, got, want)
			}
			if va.Equal(vb) != (a == b) || (va == vb) != (a == b) {
				t.Errorf("Equal(%q, %q) = %v", a, b, va.Equal(vb))
			}
			if a != b && va.Hash() == vb.Hash() {
				t.Errorf("%q and %q hash alike", a, b)
			}
		}
	}
	// A symbol and the int equal to its id are different values with
	// different hashes.
	for _, v := range vals {
		twin := Int(v.i)
		if v.Equal(twin) || v.Hash() == twin.Hash() || v.Compare(twin) != 1 {
			t.Errorf("%q (symbol %d) is not told apart from Int(%d)", v.AsString(), v.i, v.i)
		}
	}
}

// TestConcurrentInterning: many goroutines intern overlapping strings while
// others read symbols back (run under -race). Every goroutine gets one
// symbol per string, and every lookup returns the string interned.
func TestConcurrentInterning(t *testing.T) {
	const workers, words = 8, 300
	got := make([][]Value, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]Value, words)
			for k := range words {
				i := (k*7 + w*31) % words // each worker its own order
				s := fmt.Sprintf("concurrent-%d", i)
				v := String(s)
				if v.AsString() != s || v.Compare(String(s)) != 0 {
					t.Errorf("worker %d: %q read back as %q", w, s, v.AsString())
				}
				out[i] = v
			}
			for i, v := range out {
				if want := fmt.Sprintf("concurrent-%d", i); v.String() != want {
					t.Errorf("worker %d: symbol %d reads %q, want %q", w, v.i, v.String(), want)
				}
			}
			got[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[w] {
			if got[w][i] != got[0][i] {
				t.Fatalf("concurrent-%d interned as %v and %v", i, got[0][i], got[w][i])
			}
		}
	}
}
