package serve

import (
	"os"
	"path/filepath"
	"testing"

	"pet/internal/bench"
)

// FuzzExperimentSpec feeds arbitrary bytes through the job API's spec path
// — the strict body decoder, normalized (Launch's validation) and scenario
// — and checks that nothing panics and that every spec Launch would accept
// assembles through bench.NewEnv without a panic. Job specs from the tests
// and the canned scenario library (bare, and embedded as a job's
// "scenario") seed the corpus; crashers live under
// testdata/fuzz/FuzzExperimentSpec.
func FuzzExperimentSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"scheme":"SECN1","load":0.5,"seed":1,"warmup":"2ms","duration":"3ms"}`,
		`{"kind":"pretrain","workload":"datamining","duration":"8ms","workers":2,"rounds":3}`,
		`{"scheme":"PET","transport":"dctcp","topo":"small","incast_fraction":0.3,"incast_fan_in":4,"train":false}`,
		`{"scheme":"SECN1","incast_fraction":1.5}`,
		`{"warmup":"200000h"}`,
		`{"scenario":{"load":0.5},"transport":"dctcp"}`,
	} {
		f.Add([]byte(seed))
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		doc, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
		f.Add([]byte(`{"scenario":` + string(doc) + `,"warmup":"1ms","duration":"2ms"}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp ExperimentSpec
		if decodeJSONStrict(data, &sp) != nil {
			return
		}
		n, err := sp.normalized()
		if err != nil {
			return
		}
		s, err := n.scenario()
		if err != nil {
			t.Fatalf("accepted spec %s does not resolve: %v", data, err)
		}
		// Assembly cost grows with the fabric; the property is about
		// validation, so large fabrics and shard counts are skipped.
		if s.Topo.Spines > 4 || s.Topo.Leaves > 8 || s.Topo.HostsPerLeaf > 16 || s.Shards > 4 {
			return
		}
		if _, err := bench.NewEnv(s); err != nil {
			t.Logf("accepted spec %s fails assembly: %v", data, err)
		}
	})
}
