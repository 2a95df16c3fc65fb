package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pet/internal/modelstore"
	"pet/internal/sim"
)

// saveRounds checkpoints rounds 1..n with distinct payloads into the store
// at dir.
func saveRounds(t *testing.T, dir string, n, keep int) *modelstore.Store {
	t.Helper()
	st, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= n; r++ {
		rec := RoundRecord{Round: r, Workers: 1, Seed: 1, EpisodePs: 1}
		if _, err := saveCheckpoint(st, rec, []byte(fmt.Sprintf("round-%d-weights", r)), keep); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// readable lists the versions whose bytes still read back.
func readable(st *modelstore.Store) []int {
	var vs []int
	for _, vi := range st.Versions() {
		if _, _, err := st.Get(vi.Version); err == nil {
			vs = append(vs, vi.Version)
		}
	}
	return vs
}

// objectOf is the on-disk object of one store version.
func objectOf(t *testing.T, st *modelstore.Store, version int) string {
	t.Helper()
	vi, err := st.Info(version)
	if err != nil {
		t.Fatal(err)
	}
	return st.ObjectPath(vi.SHA256)
}

// The GC must retain the newest keep rounds — not nuke everything but the
// latest — so a single corrupted bundle still leaves fallback candidates.
func TestGCRetainsCheckpointHistory(t *testing.T) {
	st := saveRounds(t, t.TempDir(), 5, 3)
	if got, want := readable(st), []int{3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("readable versions = %v, want %v", got, want)
	}
	if vi, err := st.Channel(modelstore.ChannelCandidate); err != nil || vi.Version != 5 {
		t.Fatalf("candidate channel = %+v, %v; want version 5", vi, err)
	}

	// keep=1 keeps only the newest round's bytes.
	st = saveRounds(t, t.TempDir(), 4, 1)
	if got, want := readable(st), []int{4}; !slices.Equal(got, want) {
		t.Fatalf("keep=1 readable versions = %v, want %v", got, want)
	}
}

// Every corruption mode must yield its typed error when no fallback
// candidate exists — never a zero RoundRecord or silently-garbage weights.
func TestLoadCheckpointTypedErrors(t *testing.T) {
	t.Run("no checkpoint", func(t *testing.T) {
		_, _, _, err := LoadCheckpoint(t.TempDir(), nil)
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("err = %v, want ErrNoCheckpoint", err)
		}
		// A store whose versions carry no round record is no checkpoint.
		dir := t.TempDir()
		st, err := modelstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Put([]byte("uploaded"), "api", "", nil); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := LoadCheckpoint(dir, nil); !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("record-less store: err = %v, want ErrNoCheckpoint", err)
		}
	})

	t.Run("garbage manifest JSON", func(t *testing.T) {
		// The version log is the manifest now: damage before its final
		// line is corruption, not a torn append.
		dir := t.TempDir()
		saveRounds(t, dir, 2, 2)
		logPath := filepath.Join(dir, "versions.log")
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		mustWrite(t, logPath, append([]byte("{truncated\n"), data...))
		_, _, _, err = LoadCheckpoint(dir, nil)
		if !errors.Is(err, modelstore.ErrLogCorrupt) {
			t.Fatalf("err = %v, want modelstore.ErrLogCorrupt", err)
		}
	})

	t.Run("manifest escaping the directory", func(t *testing.T) {
		dir := t.TempDir()
		line := `{"version":1,"sha256":"../evil","bytes":4,"created_at":"2024-01-01T00:00:00Z","meta":{"round":1}}`
		mustWrite(t, filepath.Join(dir, "versions.log"), []byte(line+"\n"))
		_, _, _, err := LoadCheckpoint(dir, nil)
		if !errors.Is(err, modelstore.ErrLogCorrupt) {
			t.Fatalf("err = %v, want modelstore.ErrLogCorrupt", err)
		}
	})

	t.Run("version skew", func(t *testing.T) {
		// The retired layout is refused by name, and resume leaves it
		// untouched instead of starting fresh over it.
		dir := t.TempDir()
		legacy := []string{"fleet-000001.bundle", "manifest.json"}
		mustWrite(t, filepath.Join(dir, legacy[0]), []byte("weights"))
		mustWrite(t, filepath.Join(dir, legacy[1]),
			[]byte(`{"version": 1, "round": 1, "bundle": "fleet-000001.bundle"}`))
		_, err := Pretrain(testScenario(12), Config{
			Workers: 1, Rounds: 2, Episode: 2 * sim.Millisecond, Checkpoint: dir, Resume: true,
		})
		if !errors.Is(err, ErrLegacyCheckpoint) || !strings.Contains(err.Error(), "manifest.json") {
			t.Fatalf("err = %v, want ErrLegacyCheckpoint naming manifest.json", err)
		}
		if got := dirNames(t, dir); !slices.Equal(got, legacy) {
			t.Fatalf("legacy directory now holds %v, want %v untouched", got, legacy)
		}
	})

	t.Run("missing bundle", func(t *testing.T) {
		dir := t.TempDir()
		st := saveRounds(t, dir, 1, 1)
		if err := os.Remove(objectOf(t, st, 1)); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := LoadCheckpoint(dir, nil)
		if !errors.Is(err, modelstore.ErrBundleGone) {
			t.Fatalf("err = %v, want modelstore.ErrBundleGone", err)
		}
	})

	t.Run("checksum mismatch", func(t *testing.T) {
		dir := t.TempDir()
		st := saveRounds(t, dir, 1, 1)
		if err := corruptBundleFile(objectOf(t, st, 1)); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := LoadCheckpoint(dir, nil)
		if !errors.Is(err, modelstore.ErrBundleCorrupt) {
			t.Fatalf("err = %v, want modelstore.ErrBundleCorrupt", err)
		}
		if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("error %q does not mention the checksum", err)
		}
	})
}

// With history retained, the same corruption modes fall back to the newest
// intact round instead of failing.
func TestLoadCheckpointFallsBackThroughHistory(t *testing.T) {
	dir := t.TempDir()
	st := saveRounds(t, dir, 3, 3)
	// Round 3's bytes rot; round 2's are gone.
	if err := corruptBundleFile(objectOf(t, st, 3)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(objectOf(t, st, 2)); err != nil {
		t.Fatal(err)
	}

	var logs []string
	rec, models, fellBack, err := LoadCheckpoint(dir, func(format string, a ...any) {
		logs = append(logs, fmt.Sprintf(format, a...))
	})
	if err != nil {
		t.Fatalf("fallback load failed: %v", err)
	}
	if !fellBack {
		t.Fatal("fellBack = false, want true")
	}
	if rec.Round != 1 || string(models) != "round-1-weights" {
		t.Fatalf("fell back to round %d (%q), want round 1", rec.Round, models)
	}
	// Both bad candidates were logged before round 1 was accepted.
	joined := strings.Join(logs, "\n")
	for _, want := range []string{"version 3", "version 2", "round 1"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("fallback log missing %q:\n%s", want, joined)
		}
	}

	// A torn final log line (kill mid-append) and a newer version without
	// a round record are both passed over without counting as a fallback.
	dir = t.TempDir()
	st = saveRounds(t, dir, 2, 3)
	if _, err := st.Put([]byte("uploaded"), "api", "", nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "versions.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"version":4,"sha256":"de`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rec, models, fellBack, err = LoadCheckpoint(dir, nil)
	if err != nil || fellBack || rec.Round != 2 || string(models) != "round-2-weights" {
		t.Fatalf("round=%d fellBack=%v err=%v, want round 2 without fallback", rec.Round, fellBack, err)
	}
}

// Zero-valued fault fields stay out of the record, and a record without
// them loads with zero-value history (forward compatibility).
func TestManifestWithoutFaultFieldsLoads(t *testing.T) {
	dir := t.TempDir()
	saveRounds(t, dir, 1, 1)
	data, err := os.ReadFile(filepath.Join(dir, "versions.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"retries", "stragglers", "degraded_rounds"} {
		if strings.Contains(string(data), field) {
			t.Fatalf("zero-valued %q serialized into the round record: %s", field, data)
		}
	}
	rec, _, _, err := LoadCheckpoint(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Round != 1 || rec.Retries != 0 || rec.Stragglers != 0 || len(rec.DegradedRounds) != 0 {
		t.Fatalf("record = %+v, want round 1 with zero fault fields", rec)
	}
}

// A logged record holds only the rounds since the previous checkpoint, so
// the log grows linearly in rounds; LoadCheckpoint rebuilds the full
// history by chaining predecessors, skipping records of an abandoned
// branch (round 3 below, rewritten after a fallback to round 2) and
// spanning multi-round checkpoint intervals.
func TestLoadCheckpointRebuildsHistory(t *testing.T) {
	dir := t.TempDir()
	st, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range []RoundRecord{
		{Round: 1, Rewards: []float64{1}},
		{Round: 2, Rewards: []float64{2}, DegradedRounds: []int{1}},
		{Round: 3, Rewards: []float64{-3}, DegradedRounds: []int{2}},
		{Round: 3, Rewards: []float64{3}},
		{Round: 5, Rewards: []float64{4, 5}, DegradedRounds: []int{4}},
	} {
		if _, err := saveCheckpoint(st, rec, []byte(fmt.Sprintf("bundle-%d", i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	rec, _, _, err := LoadCheckpoint(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 3, 4, 5}; rec.Round != 5 || !slices.Equal(rec.Rewards, want) {
		t.Fatalf("round %d rewards %v, want round 5 rewards %v", rec.Round, rec.Rewards, want)
	}
	if want := []int{1, 4}; !slices.Equal(rec.DegradedRounds, want) {
		t.Fatalf("degraded rounds %v, want %v", rec.DegradedRounds, want)
	}
}

// dirNames lists a directory's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func mustWrite(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
