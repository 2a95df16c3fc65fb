package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// runtimeSampler tracks the peak live Go heap (the bytes the latest GC
// cycle marked live, as runtime/metrics reports it) by polling in the
// background, and the GC CPU time and allocation volume between start and
// finish. The live heap, unlike the heap in use, does not depend on how far
// the collector had fallen behind at the moment of sampling.
type runtimeSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64 // highest live heap since the last lap

	laps []float64 // peak of each lap, bytes

	gcStart, allocStart float64
	gcCPU, allocBytes   float64
}

const (
	heapLiveMetric = "/gc/heap/live:bytes"
	gcCPUMetric    = "/cpu/classes/gc/total:cpu-seconds"
	allocMetric    = "/gc/heap/allocs:bytes"
)

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// startRuntimeSampler begins polling the heap every 2ms. Call finish before
// reading the results.
func startRuntimeSampler() *runtimeSampler {
	r := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := readMetrics(gcCPUMetric, allocMetric)
	r.gcStart, r.allocStart = sampleFloat(s[0]), sampleFloat(s[1])
	go func() {
		defer close(r.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		heap := []metrics.Sample{{Name: heapLiveMetric}}
		for {
			metrics.Read(heap)
			r.observe(heap[0].Value.Uint64())
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

func (r *runtimeSampler) observe(v uint64) {
	for old := r.peak.Load(); v > old && !r.peak.CompareAndSwap(old, v); old = r.peak.Load() {
	}
}

// lap closes one repetition: its peak is recorded and the next lap starts
// from zero.
func (r *runtimeSampler) lap() {
	r.laps = append(r.laps, float64(r.peak.Swap(0)))
}

// reset drops the peak seen so far, so set-up work outside the measured
// phase does not count.
func (r *runtimeSampler) reset() { r.peak.Store(0) }

// finish stops the poller, waits for it and records the deltas.
func (r *runtimeSampler) finish() {
	close(r.stop)
	<-r.done
	s := readMetrics(gcCPUMetric, allocMetric, heapLiveMetric)
	r.gcCPU = sampleFloat(s[0]) - r.gcStart
	r.allocBytes = sampleFloat(s[1]) - r.allocStart
	r.observe(s[2].Value.Uint64())
}

// peakMB is the median of the laps' peaks, or the peak of the whole run
// when it had no laps.
func (r *runtimeSampler) peakMB() float64 {
	if len(r.laps) == 0 {
		return float64(r.peak.Load()) / (1 << 20)
	}
	return median(r.laps) / (1 << 20)
}

// span is one timed call the benchmark made into the program. It holds no
// pointers (the name is an index into the tracer's name table), so a run
// that records a span per request does not give the collector a large
// buffer to scan.
type span struct {
	Parent int32   // 0 = a root span; span IDs are 1-based positions
	Name   int32   // index into tracer.names
	Start  float64 // seconds since the tracer began
	End    float64
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so untraced passes pay only a nil check per call.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	names  []string
	nameID map[string]int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), nameID: map[string]int32{}} }

// add appends a span; the caller holds t.mu.
func (t *tracer) add(name string, parent int, start, end float64) int {
	id, ok := t.nameID[name]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, name)
		t.nameID[name] = id
	}
	t.spans = append(t.spans, span{Parent: int32(parent), Name: id, Start: start, End: end})
	return len(t.spans)
}

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(name, parent, now, 0)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already finished span.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(name, parent, start.Sub(t.t0).Seconds(), end.Sub(t.t0).Seconds())
}

// spanRecord is a span as the result file lists it.
type spanRecord struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// records lists every span for the result file.
func (t *tracer) records() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanRecord, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanRecord{ID: i + 1, Parent: int(s.Parent), Name: t.names[s.Name], Start: s.Start, End: s.End}
	}
	return out
}

// spanSummary aggregates spans by name: count, total duration and self time
// (duration minus the part covered by child spans).
type spanSummary struct {
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	MedianS float64 `json:"median_s"`
}

func (t *tracer) summary() map[string]spanSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	durs := map[string][]float64{}
	out := map[string]spanSummary{}
	for i, s := range t.spans {
		name := t.names[s.Name]
		d := s.End - s.Start
		sum := out[name]
		sum.Count++
		sum.TotalS += d
		sum.SelfS += d - child[i+1]
		out[name] = sum
		durs[name] = append(durs[name], d)
	}
	for name, sum := range out {
		sum.MedianS = median(durs[name])
		out[name] = sum
	}
	return out
}

// hostInfo identifies the machine a result was measured on.
type hostInfo struct {
	NumCPU    int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU:    runtime.NumCPU(),
		CPUModel:  "unknown",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
