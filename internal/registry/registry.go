// Package registry is the one name-keyed registry idiom of the repository.
// Control schemes, end-host transports, event kinds and workloads all
// self-register from init functions under a stable name, and scenarios, the
// CLIs and petd select them by that name. Each of those registries is a Map.
package registry

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Map is a concurrency-safe name → value registry. The zero value is empty
// and ready to use.
type Map[K ~string, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// Register adds v under name. It is intended for use from init functions;
// an empty name, a nil value or a name registered twice panics.
func (r *Map[K, V]) Register(name K, v V) {
	if name == "" {
		panic(fmt.Sprintf("registry: empty name for %T", v))
	}
	if isNil(v) {
		panic(fmt.Sprintf("registry: nil %T for %q", v, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("registry: %T %q registered twice", v, name))
	}
	if r.m == nil {
		r.m = map[K]V{}
	}
	r.m[name] = v
}

// Get returns the value registered under name.
func (r *Map[K, V]) Get(name K) (V, bool) {
	r.mu.Lock()
	v, ok := r.m[name]
	r.mu.Unlock()
	return v, ok
}

// Names lists every registered name, sorted.
func (r *Map[K, V]) Names() []K {
	r.mu.Lock()
	names := make([]K, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

// isNil reports whether v is nil or a nil func, pointer, map, slice,
// channel or interface.
func isNil(v any) bool {
	if v == nil {
		return true
	}
	switch rv := reflect.ValueOf(v); rv.Kind() {
	case reflect.Chan, reflect.Func, reflect.Interface, reflect.Map, reflect.Pointer, reflect.Slice:
		return rv.IsNil()
	}
	return false
}
