package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestScenarioBadSpecExit2(t *testing.T) {
	dir := t.TempDir()
	cases := []struct{ doc, want string }{
		{`{"topo": {"spine": 2}}`, "topo.spine: unknown field"},
		{`{"workload": {"name": "bogus"}}`, "workload.name"},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		code := run([]string{"-scenario", path, "-out", filepath.Join(dir, "m.model")}, &out, &errb)
		if code != 2 {
			t.Fatalf("exit = %d, want 2 for %s", code, tc.doc)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Fatalf("stderr %q does not name %q", errb.String(), tc.want)
		}
	}
}

// Every canned library scenario is a valid training environment: one short
// episode trains and a model bundle lands on disk.
func TestCannedScenarioLibraryTrains(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario library found: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "pet.model")
			var stdout, stderr bytes.Buffer
			code := run([]string{"-scenario", f, "-duration", "1ms", "-q", "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
			}
			if !strings.Contains(stdout.String(), "rounds=1") {
				t.Fatalf("no result line:\n%s", stdout.String())
			}
			if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
				t.Fatalf("no model bundle written: %v", err)
			}
		})
	}
}

// The document's duration becomes the episode time unless -duration is set.
func TestScenarioDurationBecomesEpisode(t *testing.T) {
	dir := t.TempDir()
	doc := `{"seed": 2, "load": 0.4, "duration": "1ms"}`
	path := filepath.Join(dir, "train.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scenario", path, "-q", "-out", filepath.Join(dir, "m.model")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "episodes of 1ms simulated time") {
		t.Fatalf("episode time did not come from the document:\n%s", stderr.String())
	}
}

// -workload over a document without betas picks that workload's paper
// betas (Data Mining: 0.7, 0.3), exactly as it does without -scenario.
func TestScenarioWorkloadFlagBetas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "train.json")
	if err := os.WriteFile(path, []byte(`{"seed": 2, "load": 0.4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-scenario", path, "-workload", "datamining"},
		{"-workload", "datamining"},
	} {
		fs, o := newFlags(io.Discard)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		s, _, err := o.resolve(fs)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if s.Beta1 != 0.7 || s.Beta2 != 0.3 {
			t.Fatalf("%v: betas (%g, %g), want (0.7, 0.3)", args, s.Beta1, s.Beta2)
		}
	}
}
