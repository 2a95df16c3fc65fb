package bench

// Test-only exports. The scheme and transport packages import bench to
// register themselves, so bench's own tests live in package bench_test
// (importing those packages from an in-package test would cycle); this shim
// exposes the unexported pieces they exercise.

import "pet/internal/workload"

var MergeResults = mergeResults

// Apply resolves the spec against the event-kind registry and applies it to
// e immediately.
func (ev EventSpec) Apply(e *Env) error {
	resolved, err := resolveEvents([]EventSpec{ev})
	if err != nil {
		return err
	}
	resolved[0].apply(e)
	return nil
}

func (s Scenario) WithDefaults() Scenario { return s.withDefaults() }

func (r *Runner) RunOne(scheme Scheme, wl *workload.CDF, load float64) (Result, error) {
	return r.run(scheme, wl, load)
}

func (r *Runner) CacheSize() int { return len(r.cache) }

func (r *Runner) Cached(key string) (Result, bool) {
	res, ok := r.cache[key]
	return res, ok
}
