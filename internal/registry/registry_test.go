package registry_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pet/internal/registry"
)

type name string

func TestRegistryRegisterPanics(t *testing.T) {
	var fns registry.Map[name, func() int]
	fns.Register("one", func() int { return 1 })
	for _, tc := range []struct {
		desc string
		name name
		fn   func() int
	}{
		{"empty name", "", func() int { return 0 }},
		{"nil value", "nil", nil},
		{"duplicate", "one", func() int { return 2 }},
	} {
		t.Run(tc.desc, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register(%q) did not panic", tc.name)
				}
			}()
			fns.Register(tc.name, tc.fn)
		})
	}
	if got := fns.Names(); !reflect.DeepEqual(got, []name{"one"}) {
		t.Fatalf("a panicking Register changed the registry: %v", got)
	}
}

func TestRegistryNilPointerPanics(t *testing.T) {
	var ptrs registry.Map[string, *int]
	defer func() {
		if recover() == nil {
			t.Fatal("Register of a nil pointer did not panic")
		}
	}()
	ptrs.Register("p", nil)
}

func TestRegistryNamesSortedAndGet(t *testing.T) {
	var ints registry.Map[name, int]
	if got := ints.Names(); len(got) != 0 {
		t.Fatalf("zero Map lists %v", got)
	}
	if _, ok := ints.Get("missing"); ok {
		t.Fatal("zero Map found a name")
	}
	for i, n := range []name{"delta", "alpha", "charlie", "bravo"} {
		ints.Register(n, i)
	}
	want := []name{"alpha", "bravo", "charlie", "delta"}
	if got := ints.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if v, ok := ints.Get("charlie"); !ok || v != 2 {
		t.Fatalf("Get(charlie) = %d, %v; want 2, true", v, ok)
	}
	if _, ok := ints.Get("echo"); ok {
		t.Fatal("Get found an unregistered name")
	}
}

// Lookups run concurrently with each other and with late registrations;
// `go test -race` checks the locking.
func TestRegistryConcurrentGet(t *testing.T) {
	var ints registry.Map[string, int]
	for i := 0; i < 8; i++ {
		ints.Register(fmt.Sprintf("n%d", i), i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if v, ok := ints.Get(fmt.Sprintf("n%d", i%8)); !ok || v != i%8 {
					t.Errorf("Get(n%d) = %d, %v", i%8, v, ok)
					return
				}
				ints.Names()
			}
		}(g)
	}
	for i := 8; i < 16; i++ {
		ints.Register(fmt.Sprintf("n%d", i), i)
	}
	wg.Wait()
	if n := len(ints.Names()); n != 16 {
		t.Fatalf("%d names after concurrent registration, want 16", n)
	}
}
