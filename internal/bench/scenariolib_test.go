package bench_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pet/internal/bench"
	"pet/internal/sim"
)

// go test ./internal/bench -run ScenarioLibrary -update regenerates the
// golden summaries in testdata/ after a deliberate library change.
var update = flag.Bool("update", false, "rewrite golden files")

// libraryScenarios are the canned documents every release ships; the test
// fails if one goes missing so the set cannot silently shrink.
var libraryScenarios = []string{
	"failure-storm",
	"incast-sweep",
	"offload-mix",
	"onoff-bursty",
	"oversubscribed-leafspine",
}

func libraryFiles(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario library found: %v", err)
	}
	byName := map[string]string{}
	for _, f := range files {
		byName[strings.TrimSuffix(filepath.Base(f), ".json")] = f
	}
	return byName
}

// summarize renders the materialized scenario in a stable textual form — the
// golden content. It reads both the document (for event kinds) and the
// materialized Scenario (for resolved defaults), so either drifting trips the
// golden.
func summarize(sp *bench.ScenarioSpec, s bench.Scenario) string {
	d := s.WithDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "name: %s\n", sp.Name)
	fmt.Fprintf(&b, "topo: %d spines x %d leaves x %d hosts/leaf, host %.0fG uplink %.0fG\n",
		d.Topo.Spines, d.Topo.Leaves, d.Topo.HostsPerLeaf, d.Topo.HostLinkBps/1e9, d.Topo.UplinkBps/1e9)
	fmt.Fprintf(&b, "workload: %s (mean %.0f B)\n", d.Workload.Name(), d.Workload.Mean())
	fmt.Fprintf(&b, "load: %.2f  incast: %.2f fan-in %d\n", d.Load, d.IncastFraction, d.IncastFanIn)
	fmt.Fprintf(&b, "scheme: %s  transport: %s  betas: (%.2f, %.2f)  train: %v\n",
		d.Scheme, d.Transport, d.Beta1, d.Beta2, d.Train)
	fmt.Fprintf(&b, "warmup: %v  duration: %v  shards: %d\n",
		time.Duration(d.Warmup/sim.Nanosecond)*time.Nanosecond,
		time.Duration(d.Duration/sim.Nanosecond)*time.Nanosecond, d.Shards)
	fmt.Fprintf(&b, "events: %d\n", len(sp.Events))
	for _, ev := range sp.Events {
		fmt.Fprintf(&b, "  at %v: %s\n", ev.At, ev.Kind)
	}
	return b.String()
}

func TestScenarioLibrary(t *testing.T) {
	byName := libraryFiles(t)
	var have []string
	for n := range byName {
		have = append(have, n)
	}
	sort.Strings(have)
	for _, want := range libraryScenarios {
		if _, ok := byName[want]; !ok {
			t.Fatalf("library scenario %q missing (have %v)", want, have)
		}
	}

	for name, file := range byName {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := bench.DecodeScenarioSpec(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if spec.Name != name {
				t.Errorf("document name %q != file name %q", spec.Name, name)
			}
			if spec.Version != bench.SpecVersion {
				t.Errorf("document version %d, want %d (library documents pin their version)", spec.Version, bench.SpecVersion)
			}

			// The committed file is in canonical form: decode∘encode is the
			// identity on it.
			enc, err := spec.Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if !bytes.Equal(enc, data) {
				t.Errorf("%s is not in canonical form; rewrite it with Encode()", file)
			}

			s, err := spec.ToScenario()
			if err != nil {
				t.Fatalf("ToScenario: %v", err)
			}
			// Assemble the full stack once so a library document can never
			// name a scheme, transport or topology this binary cannot build.
			if _, err := bench.NewEnv(s); err != nil {
				t.Fatalf("NewEnv: %v", err)
			}

			got := summarize(spec, s)
			golden := filepath.Join("testdata", "scenario_"+name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("summary drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}

// Every library scenario actually runs end to end on a shortened horizon —
// events fire scaled into the window, flows complete, nothing panics.
func TestScenarioLibrarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("library smoke runs simulations")
	}
	for name, file := range libraryFiles(t) {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := bench.DecodeScenarioSpec(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			// Shrink the horizon but keep every event inside it, preserving
			// the document's structure while staying test-fast.
			total := 4 * sim.Millisecond
			warmup := sim.Millisecond
			span := total - warmup
			n := len(spec.Events)
			for i := range spec.Events {
				at := warmup + span*sim.Time(i+1)/sim.Time(n+1)
				spec.Events[i].At = bench.SimDuration(at)
			}
			spec.Warmup = durPtr(bench.SimDuration(warmup))
			spec.Duration = durPtr(bench.SimDuration(span))
			s, err := spec.ToScenario()
			if err != nil {
				t.Fatalf("ToScenario: %v", err)
			}
			env, err := bench.NewEnv(s)
			if err != nil {
				t.Fatalf("NewEnv: %v", err)
			}
			res := env.Run()
			if res.FlowsDone == 0 {
				t.Fatalf("%s completed no flows", name)
			}
		})
	}
}
