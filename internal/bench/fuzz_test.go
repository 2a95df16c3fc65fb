package bench_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pet/internal/bench"
)

// FuzzDecodeScenarioSpec feeds arbitrary bytes to the scenario decoder — the
// parser behind every CLI -scenario flag and petd's POST /experiments. It
// checks that decoding and ToScenario never panic, that every accepted
// document is a fixed point of Decode∘Encode, and that every ToScenario
// error is a *SpecError naming a JSON path. The canned library and the
// example documents seed the corpus; crashers live under
// testdata/fuzz/FuzzDecodeScenarioSpec.
func FuzzDecodeScenarioSpec(f *testing.F) {
	for _, pattern := range []string{
		filepath.Join("..", "..", "scenarios", "*.json"),
		filepath.Join("..", "..", "examples", "*", "scenario.json"),
	} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := bench.DecodeScenarioSpec(data)
		if err != nil {
			return
		}
		enc, err := spec.Encode()
		if err != nil {
			t.Fatalf("encode of a decoded document: %v", err)
		}
		again, err := bench.DecodeScenarioSpec(enc)
		if err != nil {
			t.Fatalf("re-decode of\n%s\nfailed: %v", enc, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("Decode∘Encode is not a fixed point:\n first %+v\nsecond %+v", spec, again)
		}
		if enc2, _ := again.Encode(); !bytes.Equal(enc2, enc) {
			t.Fatalf("canonical encoding unstable:\n%s\nvs\n%s", enc, enc2)
		}
		if _, err := spec.ToScenario(); err != nil {
			var se *bench.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("ToScenario error %v (%T) is not a *SpecError", err, err)
			}
		}
	})
}
