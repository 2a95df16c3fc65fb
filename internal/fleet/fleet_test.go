package fleet

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pet/internal/bench"
	"pet/internal/modelstore"
	"pet/internal/sim"
)

// trainEpisode is long enough for each agent to complete at least one IPPO
// update (UpdateEvery=64 intervals of 100µs), so weights genuinely move and
// byte-comparisons exercise trained models rather than untouched inits.
const trainEpisode = 8 * sim.Millisecond

func testScenario(seed int64) bench.Scenario {
	return bench.Scenario{Seed: seed, Load: 0.4, IncastFraction: 0.2, IncastFanIn: 3}
}

func TestWorkersOneRoundOneMatchesSequential(t *testing.T) {
	s := testScenario(1)
	sequential, err := bench.PretrainPET(s, trainEpisode)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Pretrain(s, Config{Workers: 1, Rounds: 1, Episode: trainEpisode})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Models, sequential) {
		t.Fatal("Workers=1, Rounds=1 fleet bundle differs from sequential PretrainPET")
	}
	if res.Rounds != 1 || res.ResumedFrom != 0 {
		t.Fatalf("Rounds=%d ResumedFrom=%d", res.Rounds, res.ResumedFrom)
	}
}

func TestFleetDeterministicAcrossRuns(t *testing.T) {
	s := testScenario(2)
	cfg := Config{Workers: 2, Rounds: 2, Episode: 2 * sim.Millisecond}
	a, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Models, b.Models) {
		t.Fatal("same (scenario, config) produced different bundles")
	}
	if a.CumReward != b.CumReward {
		t.Fatalf("cumulative rewards differ: %v vs %v", a.CumReward, b.CumReward)
	}
}

func TestFleetTrainsAndMerges(t *testing.T) {
	s := testScenario(3)
	init, err := bench.PretrainInit(s)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []RoundStats
	res, err := Pretrain(s, Config{
		Workers: 2, Rounds: 1, Episode: trainEpisode,
		OnRound: func(r RoundStats) { rounds = append(rounds, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(res.Models, init) {
		t.Fatal("training moved no weights")
	}
	if len(rounds) != 1 || rounds[0].Episodes != 2 {
		t.Fatalf("round stats = %+v", rounds)
	}
	if rounds[0].Updates == 0 {
		t.Fatal("no IPPO updates in a full-length episode")
	}
	if rounds[0].MeanReward <= 0 {
		t.Fatalf("mean reward = %v", rounds[0].MeanReward)
	}
	// The merged bundle must deploy: run a short online scenario from it.
	online := testScenario(3)
	online.Scheme = bench.SchemePET
	online.Models = res.Models
	online.Warmup = 2 * sim.Millisecond
	online.Duration = 4 * sim.Millisecond
	out, err := bench.Run(online)
	if err != nil {
		t.Fatal(err)
	}
	if out.FlowsDone == 0 {
		t.Fatal("no flows completed under the merged pretrained models")
	}
}

func TestCheckpointResumeMatchesStraightRun(t *testing.T) {
	s := testScenario(4)
	episode := 2 * sim.Millisecond

	straight, err := Pretrain(s, Config{Workers: 2, Rounds: 3, Episode: episode})
	if err != nil {
		t.Fatal(err)
	}

	// Run the first two rounds, "die", then resume to round 3.
	dir := t.TempDir()
	if _, err := Pretrain(s, Config{Workers: 2, Rounds: 2, Episode: episode, Checkpoint: dir}); err != nil {
		t.Fatal(err)
	}
	res, err := Pretrain(s, Config{Workers: 2, Rounds: 3, Episode: episode, Checkpoint: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != 2 {
		t.Fatalf("ResumedFrom = %d, want 2", res.ResumedFrom)
	}
	if !bytes.Equal(res.Models, straight.Models) {
		t.Fatal("resumed run diverged from the uninterrupted run")
	}
	m, models, _, err := LoadCheckpoint(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Round != 3 || len(m.Rewards) != 3 {
		t.Fatalf("final round record round=%d rewards=%d", m.Round, len(m.Rewards))
	}
	if sum := m.Rewards[0] + m.Rewards[1] + m.Rewards[2]; sum != m.CumReward {
		t.Fatalf("rebuilt rewards %v sum to %v, cumulative reward is %v", m.Rewards, sum, m.CumReward)
	}
	if !bytes.Equal(models, res.Models) {
		t.Fatal("checkpointed bundle differs from returned bundle")
	}
}

func TestResumeIgnoresTornCheckpointWrite(t *testing.T) {
	s := testScenario(5)
	episode := 2 * sim.Millisecond
	dir := t.TempDir()
	if _, err := Pretrain(s, Config{Workers: 1, Rounds: 1, Episode: episode, Checkpoint: dir}); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-checkpoint: half-written temp files for an
	// object and a channel pointer, an orphan object the log never came
	// to reference, and a version-log line cut mid-append.
	strays := []string{"objects/ab.bundle.tmp", "channels/candidate.tmp", "objects/" + strings.Repeat("0", 64) + ".bundle"}
	for _, stray := range strays {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("torn write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	log, err := os.OpenFile(filepath.Join(dir, "versions.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.WriteString(`{"version":2,"sha256":"0000`); err != nil {
		t.Fatal(err)
	}
	log.Close()
	res, err := Pretrain(s, Config{Workers: 1, Rounds: 2, Episode: episode, Checkpoint: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume after torn checkpoint: %v", err)
	}
	if res.ResumedFrom != 1 || res.Rounds != 2 {
		t.Fatalf("ResumedFrom=%d Rounds=%d", res.ResumedFrom, res.Rounds)
	}
	straight, err := Pretrain(s, Config{Workers: 1, Rounds: 2, Episode: episode})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Models, straight.Models) {
		t.Fatal("torn-checkpoint resume diverged from the uninterrupted run")
	}
	// The next successful checkpoint garbage-collects the debris, and its
	// log line landed on a clean line boundary past the torn one.
	for _, stray := range strays {
		if _, err := os.Stat(filepath.Join(dir, stray)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stray checkpoint file %s survived (stat err %v)", stray, err)
		}
	}
	if m, _, _, err := LoadCheckpoint(dir, nil); err != nil || m.Round != 2 {
		t.Fatalf("checkpoint after torn-write resume: round %d, err %v; want round 2", m.Round, err)
	}
}

func TestResumeRejectsCorruptedBundle(t *testing.T) {
	s := testScenario(6)
	dir := t.TempDir()
	cfg := Config{Workers: 1, Rounds: 1, Episode: 2 * sim.Millisecond, Checkpoint: dir}
	if _, err := Pretrain(s, cfg); err != nil {
		t.Fatal(err)
	}
	st, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the checkpoint's object: resume must fail loudly, not train
	// from garbage.
	path := objectOf(t, st, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Rounds, cfg.Resume = 2, true
	if _, err := Pretrain(s, cfg); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted bundle resumed: err = %v", err)
	}
	// A corrupted version log must also fail loudly.
	logPath := filepath.Join(dir, "versions.log")
	if data, err = os.ReadFile(logPath); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, append([]byte("{not json\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Pretrain(s, cfg); !errors.Is(err, modelstore.ErrLogCorrupt) {
		t.Fatalf("corrupted version log resumed: err = %v", err)
	}
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	s := testScenario(7)
	dir := t.TempDir()
	if _, err := Pretrain(s, Config{Workers: 1, Rounds: 1, Episode: 2 * sim.Millisecond, Checkpoint: dir}); err != nil {
		t.Fatal(err)
	}
	other := testScenario(8) // different seed
	_, err := Pretrain(other, Config{Workers: 1, Rounds: 2, Episode: 2 * sim.Millisecond, Checkpoint: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch resumed: err = %v", err)
	}
	_, err = Pretrain(s, Config{Workers: 1, Rounds: 2, Episode: 3 * sim.Millisecond, Checkpoint: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "episode") {
		t.Fatalf("episode mismatch resumed: err = %v", err)
	}
}

func TestResumeWithoutCheckpointStartsFresh(t *testing.T) {
	s := testScenario(9)
	res, err := Pretrain(s, Config{
		Workers: 1, Rounds: 1, Episode: 2 * sim.Millisecond,
		Checkpoint: t.TempDir(), Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != 0 || res.Rounds != 1 {
		t.Fatalf("ResumedFrom=%d Rounds=%d", res.ResumedFrom, res.Rounds)
	}
}

func TestResumePastRequestedRoundsReturnsCheckpoint(t *testing.T) {
	s := testScenario(10)
	dir := t.TempDir()
	cfg := Config{Workers: 1, Rounds: 2, Episode: 2 * sim.Millisecond, Checkpoint: dir}
	full, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rounds, cfg.Resume = 1, true // already past round 1
	res, err := Pretrain(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 2 || !bytes.Equal(res.Models, full.Models) {
		t.Fatalf("short resume reran rounds: Rounds=%d", res.Rounds)
	}
}

func TestConfigValidation(t *testing.T) {
	s := testScenario(11)
	if _, err := Pretrain(s, Config{Workers: 1, Rounds: 1}); err == nil {
		t.Fatal("zero episode duration accepted")
	}
	if _, err := Pretrain(s, Config{Workers: -1, Rounds: 1, Episode: sim.Millisecond}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := Pretrain(s, Config{Workers: 1, Rounds: -1, Episode: sim.Millisecond}); err == nil {
		t.Fatal("negative rounds accepted")
	}
	if _, err := Pretrain(s, Config{Workers: 1, Rounds: 1, Episode: sim.Millisecond, Resume: true}); err == nil {
		t.Fatal("Resume without Checkpoint accepted")
	}
}

// TestFleetPublishesToStore: the checkpoint directory is a model store —
// it holds only the store layout, every checkpointed round is a version
// with the candidate channel tracking the newest one, and the final
// version's bytes match the run's result.
func TestFleetPublishesToStore(t *testing.T) {
	dir := t.TempDir()
	res, err := Pretrain(testScenario(5), Config{
		Workers: 1, Rounds: 2, Episode: 2 * sim.Millisecond, Checkpoint: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dirNames(t, dir), []string{"channels", "objects", "versions.log"}; !slices.Equal(got, want) {
		t.Fatalf("checkpoint directory holds %v, want only %v", got, want)
	}
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	versions := store.Versions()
	if len(versions) != 2 {
		t.Fatalf("%d store versions for 2 rounds", len(versions))
	}
	vi, err := store.Channel(modelstore.ChannelCandidate)
	if err != nil || vi.Version != versions[len(versions)-1].Version {
		t.Fatalf("candidate channel %+v, %v; want the newest version", vi, err)
	}
	_, bundle, err := store.Get(vi.Version)
	if err != nil || !bytes.Equal(bundle, res.Models) {
		t.Fatalf("stored final bundle differs from the run result (err %v)", err)
	}
	if !strings.Contains(versions[0].Source, "fleet round") {
		t.Fatalf("version source %q", versions[0].Source)
	}
}

// A fleet can checkpoint into a store that already serves: its GC never
// collects the serving and previous channels' versions, however shallow.
func TestFleetKeepsPinnedChannels(t *testing.T) {
	dir := t.TempDir()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []string{modelstore.ChannelPrevious, modelstore.ChannelServing} {
		vi, err := store.Put([]byte("bundle on "+ch), "api", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.SetChannel(ch, vi.Version); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Pretrain(testScenario(13), Config{
		Workers: 1, Rounds: 2, Episode: 2 * sim.Millisecond, Checkpoint: dir, KeepCheckpoints: 1,
	}); err != nil {
		t.Fatal(err)
	}
	store, err = modelstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []string{modelstore.ChannelServing, modelstore.ChannelPrevious, modelstore.ChannelCandidate} {
		if _, _, err := store.Resolve(ch); err != nil {
			t.Fatalf("channel %s unresolvable after checkpoint GC(1): %v", ch, err)
		}
	}
}
