package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// oracleRuns are short SECN1 invocations covering how petsim turns its
// flags into a scenario: plain flags, explicit zeros, an ignored invalid
// override, and a scenario document with each overriding flag.
var oracleRuns = [][]string{
	{"-scheme", "SECN1", "-warmup", "2ms", "-duration", "5ms"},
	{"-scheme", "SECN1", "-warmup", "2ms", "-duration", "5ms", "-load", "0"},
	{"-scheme", "SECN1", "-warmup", "0s", "-duration", "5ms"},
	{"-scheme", "SECN1", "-warmup", "2ms", "-duration", "5ms", "-hosts", "-1"},
	{"-scenario", "testdata/oracle.json"},
	{"-scenario", "testdata/oracle.json", "-seed", "9"},
	{"-scenario", "testdata/oracle.json", "-load", "0.3"},
	{"-scenario", "testdata/oracle.json", "-warmup", "1ms"},
	{"-scenario", "testdata/oracle.json", "-duration", "4ms"},
	{"-scenario", "testdata/oracle.json", "-topo", "small"},
	{"-scenario", "testdata/oracle.json", "-spines", "1"},
	{"-scenario", "testdata/oracle.json", "-workload", "datamining"},
	{"-scenario", "testdata/oracle.json", "-shards", "2"},
}

// TestFlagOracleGolden pins petsim's stdout and exit code for oracleRuns,
// minus the wall-clock line. go test ./cmd/petsim -run FlagOracle -update
// regenerates testdata/oracle.golden.
func TestFlagOracleGolden(t *testing.T) {
	var got strings.Builder
	for _, args := range oracleRuns {
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		fmt.Fprintf(&got, "$ petsim %s\nexit %d\n", strings.Join(args, " "), code)
		for _, line := range strings.SplitAfter(out.String(), "\n") {
			if !strings.HasPrefix(line, "wall clock") {
				got.WriteString(line)
			}
		}
	}
	path := filepath.Join("testdata", "oracle.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("petsim output drifted from %s:\n%s", path, got.String())
	}
}
