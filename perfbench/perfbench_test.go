package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"pet"
)

// TestFig4CellsMatchRunner pins the fig4 workload to the paper's exhibit:
// the cells the benchmark drives one by one must produce exactly the numbers
// Runner.Fig4 (and Fig8, from the same cached runs) renders at the same
// settings, so the workload cannot drift into a lookalike.
func TestFig4CellsMatchRunner(t *testing.T) {
	const seed = 7
	p := newPass(seed, 0, false, false)
	sw, err := p.runFig4Sweep(seed, 0)
	if err != nil {
		t.Fatal(err)
	}

	r := pet.NewRunner()
	r.Seed = seed
	r.Loads = fig4Loads
	r.TrainTime, r.Warmup, r.Duration = fig4Train, fig4Warmup, fig4Duration
	fig4, err := r.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}

	panels := []func(pet.Result) string{
		func(res pet.Result) string { return fmt.Sprintf("%.2f", res.Overall.AvgSlowdown) },
		func(res pet.Result) string { return fmt.Sprintf("%.2f", res.MiceBkt.AvgSlowdown) },
		func(res pet.Result) string { return fmt.Sprintf("%.2f", res.MiceBkt.P99Slowdown) },
		func(res pet.Result) string { return fmt.Sprintf("%.2f", res.Elephant.AvgSlowdown) },
		func(res pet.Result) string { return fmt.Sprintf("%.1f (%.1f)", res.LatencyAvgUs, res.LatencyP99Us) },
	}
	tables := append(fig4, fig8)
	if len(tables) != len(panels) {
		t.Fatalf("Runner rendered %d panels, want %d", len(tables), len(panels))
	}
	for i, tab := range tables {
		for j, scheme := range pet.ComparedSchemes() {
			row := tab.Rows[j]
			if row[0] != string(scheme) {
				t.Fatalf("%s: row %d is %s, want %s", tab.Title, j, row[0], scheme)
			}
			for l, load := range fig4Loads {
				c := sw.Cells[j*len(fig4Loads)+l]
				if c.Scheme != scheme || c.Load != load {
					t.Fatalf("cell %d is %s/%.1f, want %s/%.1f", j*len(fig4Loads)+l, c.Scheme, c.Load, scheme, load)
				}
				if got, want := panels[i](c.Result), row[l+1]; got != want {
					t.Errorf("%s: %s at %.1f: benchmark cell %s, Runner %s", tab.Title, scheme, load, got, want)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		section string
		json    []struct{ Name, Unit string }
		code    []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", c.section, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].Name || m.Unit != c.code[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program prints %s (%s)",
					c.section, i, m.Name, m.Unit, c.code[i].Name, c.code[i].Unit)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pet/internal/sim.(*Engine).Step":           "sim",
		"container/heap.Pop":                        "sim",
		"pet/internal/rl/ddqn.(*Agent).learn":       "ddqn",
		"pet/internal/mat.(*Matrix).MulVec":         "mat",
		"pet/internal/jsonlog.Replay[go.shape.int]": "jsonlog",
		"encoding/json.(*decodeState).object":       "json",
		"net/http.(*conn).serve":                    "net",
		"runtime.mallocgc":                          "runtime",
		"sync.(*Mutex).Lock":                        "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1.0001
		}
	}
	return x
}

// TestParseProfile checks the hand-written profile.proto decoder against a
// real runtime/pprof profile.
func TestParseProfile(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	data, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	if prof.buf.Len() == 0 || data.total() == 0 {
		t.Fatal("profile has no samples")
	}
	// A test binary names package main by its import path.
	if n := data.cumUnder("main.spin", "pet/perfbench.spin"); n*2 < data.total() {
		t.Errorf("spin holds %d of %d samples, want most", n, data.total())
	}
}
