package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"pet"
)

// canonicalSeed is the seed of the paper exhibit's own runs (petbench's
// default). Repetition 0 of every sim workload runs it, and the fidelity
// metrics (fct_slowdown_*, train_reward) come from that repetition, so they
// repeat exactly on every run and move only when the simulation changes.
// The other repetitions run inputs derived from --seed.
const canonicalSeed = 1

// simInputs is how many inputs a sim workload alternates: the canonical
// one and one drawn from --seed.
const simInputs = 2

// repSeed is the seed of repetition k: the canonical seed on even
// repetitions, one derived from the run's seed on odd ones.
func repSeed(seed int64, k int) int64 {
	if k%simInputs == 0 {
		return canonicalSeed
	}
	return seed*1000 + int64(k%simInputs)
}

// repeat runs the workload's fixed work once per input, then again while
// the budget lasts. work returns the host seconds of the repetition and a
// digest of what it simulated; a repetition of an earlier input must
// reproduce that input's digest exactly.
func (p *pass) repeat(what string, work func(k int, seed int64) (wall float64, digest string, err error)) error {
	const n = simInputs
	digests := make([]string, n)
	for k := 0; p.more(k, n); k++ {
		seed := repSeed(p.seed, k)
		wall, d, err := work(k, seed)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", what, seed, err)
		}
		p.rep(wall)
		if k < n {
			digests[k] = d
			continue
		}
		if d != digests[k%n] {
			err = fmt.Errorf("%s seed %d: repeated run simulated different statistics", what, seed)
		}
		p.op(err)
	}
	for k, d := range digests {
		p.digestf("%s input %d %s", what, k, d)
	}
	p.e2e["wall_s"] = median(p.reps)
	// A sim workload answers one request per repetition, so the time a
	// user waits for an answer is the repetition's host time.
	p.e2e["infer_p50_ms"] = 1e3 * median(p.reps)
	return nil
}

// setupRepeats is how many times a sim workload assembles each environment;
// the assembly's set-up time is the median of the repeats, and the last one
// is run.
const setupRepeats = 5

// newEnv assembles s setupRepeats times and returns the last environment
// with the median assembly time.
func (p *pass) newEnv(s pet.Scenario, parent int) (*pet.Env, float64, error) {
	var (
		env   *pet.Env
		err   error
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		id := p.tr.begin("NewEnv", parent)
		t := time.Now()
		env, err = pet.NewEnv(s)
		times = append(times, time.Since(t).Seconds())
		p.tr.end(id)
		if err != nil {
			return nil, 0, err
		}
	}
	return env, median(times), nil
}

// runEnv runs an assembled environment under a span and returns its wall time.
func (p *pass) runEnv(env *pet.Env, parent int) (pet.Result, float64, error) {
	id := p.tr.begin("Env.RunContext", parent)
	t := time.Now()
	res, err := env.RunContext(context.Background())
	wall := time.Since(t).Seconds()
	p.tr.end(id)
	return res, wall, err
}

// checkResult validates one simulation's statistics: flows completed, and
// every reported normalized FCT is at least 1.
func checkResult(what string, res pet.Result) error {
	if res.FlowsDone == 0 {
		return fmt.Errorf("%s: no flows completed", what)
	}
	for _, b := range []struct {
		name string
		s    pet.Summary
	}{{"overall", res.Overall}, {"mice", res.MiceBkt}, {"elephant", res.Elephant}, {"incast", res.Incast}} {
		if b.s.N > 0 && (b.s.AvgSlowdown < 1 || b.s.P99Slowdown < 1) {
			return fmt.Errorf("%s: %s slowdown below 1 (avg %g, p99 %g)", what, b.name, b.s.AvgSlowdown, b.s.P99Slowdown)
		}
	}
	return nil
}

// resultDigest fingerprints every simulated statistic of a Result. Result
// carries no wall-clock field, so equal digests mean equal simulations.
func resultDigest(res pet.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %v %+v %+v %+v %+v %v %v %v %v %d %d %v",
		res.Scheme, res.Load, res.Overall, res.MiceBkt, res.Elephant, res.Incast,
		res.LatencyAvgUs, res.LatencyP99Us, res.QueueAvgKB, res.QueueVarKB,
		res.FlowsDone, res.Drops, res.Overhead)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Workload fabric: SECN1 static ECN on the 72-host medium fabric, WebSearch
// at 70% load with 20% incast. No learner runs, so the event loop and
// packet forwarding dominate.
func fabricScenario(seed int64, reg *pet.Telemetry) (pet.Scenario, error) {
	medium, err := pet.TopoPreset("medium")
	if err != nil {
		return pet.Scenario{}, err
	}
	return pet.Scenario{
		Topo:           medium,
		Seed:           seed,
		Workload:       pet.WebSearch(),
		Load:           0.7,
		IncastFraction: 0.2,
		IncastFanIn:    3,
		Scheme:         pet.SchemeSECN1,
		Warmup:         5 * pet.Millisecond,
		ExplicitWarmup: true,
		Duration:       20 * pet.Millisecond,
		Shards:         1,
		Telemetry:      reg,
	}, nil
}

func runFabric(p *pass) error {
	if err := p.measure(); err != nil {
		return err
	}
	var (
		setups []float64
		events uint64
	)
	err := p.repeat("fabric", func(k int, seed int64) (float64, string, error) {
		s, err := fabricScenario(seed, p.reg)
		if err != nil {
			return 0, "", err
		}
		env, setup, err := p.newEnv(s, p.root)
		if err != nil {
			return 0, "", err
		}
		setups = append(setups, setup)
		res, wall, err := p.runEnv(env, p.root)
		if err != nil {
			return 0, "", err
		}
		events += env.Eng.Fired()
		p.op(checkResult(fmt.Sprintf("fabric seed %d", seed), res))
		if k == 0 {
			p.e2e["fct_slowdown_avg"] = res.Overall.AvgSlowdown
			p.e2e["fct_slowdown_p99"] = res.Overall.P99Slowdown
		}
		return wall, resultDigest(res), nil
	})
	if err != nil {
		return err
	}
	p.e2e["setup_s"] = median(setups)
	p.e2e["train_reward"] = 1 // SECN1 trains nothing; see README.md

	p.layer["sim.events"] = float64(events)
	p.layer["sim.events_per_s"] = float64(events) / sum(p.reps)
	p.layer["bench.setup_s"] = sum(setups)
	p.layer["bench.cell_s.SECN1"] = sum(p.reps)
	p.telemetryLayers()
	return nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// Workload fig4: the -quick Fig. 4 sweep (petbench -quick -exp fig4),
// driven cell by cell so each pretrain and scheme cell is its own span.
// TestFig4CellsMatchRunner pins the cells' Results to Runner.Fig4's at these settings.
const (
	fig4Train    = 10 * pet.Millisecond
	fig4Warmup   = 5 * pet.Millisecond
	fig4Duration = 15 * pet.Millisecond
)

var fig4Loads = []float64{0.3, 0.5, 0.7}

// fig4Cell is one (scheme, load) cell of the sweep.
type fig4Cell struct {
	Scheme pet.Scheme
	Load   float64
	Result pet.Result
	Env    *pet.Env
	Wall   float64
}

// fig4Sweep is one complete sweep at one seed.
type fig4Sweep struct {
	Cells    []fig4Cell // ComparedSchemes order, loads ascending within a scheme
	Pretrain float64    // host seconds in PretrainPET
	Setup    float64    // host seconds in NewEnv, the median assembly of each cell summed
	Models   []byte
}

// runFig4Sweep mirrors Runner.Fig4 with Runner.Seeds = 1: PET is pretrained
// offline on seed+1000 at 60% load, then every compared scheme runs at each
// load, PET and ACC training online during warm-up and ACC getting PET's
// pretraining time as extra warm-up.
func (p *pass) runFig4Sweep(seed int64, parent int) (fig4Sweep, error) {
	var sw fig4Sweep
	tiny := pet.TinyScale()
	ws := pet.WebSearch()
	b1, b2 := pet.DefaultBetas(ws)
	base := pet.Scenario{
		Topo:           tiny,
		Workload:       ws,
		IncastFraction: 0.2,
		IncastFanIn:    3,
		Beta1:          b1,
		Beta2:          b2,
		Telemetry:      p.reg,
	}

	pre := base
	pre.Seed = seed + 1000
	pre.Load = 0.6
	pre.Scheme = pet.SchemePET
	id := p.tr.begin("PretrainPET", parent)
	t := time.Now()
	models, err := pet.PretrainPET(pre, fig4Train)
	sw.Pretrain = time.Since(t).Seconds()
	p.tr.end(id)
	if err != nil {
		return sw, err
	}
	sw.Models = models

	for _, scheme := range pet.ComparedSchemes() {
		for _, load := range fig4Loads {
			s := base
			s.Seed = seed
			s.Load = load
			s.Scheme = scheme
			s.Warmup = fig4Warmup
			s.Duration = fig4Duration
			switch scheme {
			case pet.SchemePET:
				s.Train = true
				s.Models = models
			case pet.SchemeACC:
				s.Train = true
				s.Warmup += fig4Train
			}
			cell := p.tr.begin(fmt.Sprintf("cell %s %.1f", scheme, load), parent)
			env, setup, err := p.newEnv(s, cell)
			if err != nil {
				return sw, err
			}
			sw.Setup += setup
			res, wall, err := p.runEnv(env, cell)
			p.tr.end(cell)
			if err != nil {
				return sw, err
			}
			sw.Cells = append(sw.Cells, fig4Cell{Scheme: scheme, Load: load, Result: res, Env: env, Wall: wall})
		}
	}
	return sw, nil
}

func runFig4(p *pass) error {
	if err := p.measure(); err != nil {
		return err
	}
	var (
		setups, pretrains              []float64
		events                         uint64
		accSteps, petSteps, petUpdates int
		replayBytes                    int64
		cellBusy                       = map[pet.Scheme]float64{}
	)
	err := p.repeat("fig4", func(k int, seed int64) (float64, string, error) {
		id := p.tr.begin("fig4 sweep", p.root)
		sw, err := p.runFig4Sweep(seed, id)
		p.tr.end(id)
		if err != nil {
			return 0, "", err
		}
		setups = append(setups, sw.Setup)
		pretrains = append(pretrains, sw.Pretrain)
		wall := sw.Pretrain
		h := sha256.New()
		fmt.Fprintf(h, "models %x\n", sha256.Sum256(sw.Models))
		var petAvg, petP99, petReward []float64
		for _, c := range sw.Cells {
			wall += c.Wall
			cellBusy[c.Scheme] += c.Wall
			events += c.Env.Eng.Fired()
			fmt.Fprintf(h, "%s\n", resultDigest(c.Result))
			p.op(checkResult(fmt.Sprintf("fig4 seed %d %s load %.1f", seed, c.Scheme, c.Load), c.Result))
			switch ctl := c.Env.Control.(type) {
			case *pet.Controller:
				petAvg = append(petAvg, c.Result.Overall.AvgSlowdown)
				petP99 = append(petP99, c.Result.Overall.P99Slowdown)
				petReward = append(petReward, ctl.MeanReward())
				petUpdates += ctl.TotalUpdates()
				for _, a := range ctl.Agents() {
					petSteps += a.Steps()
				}
			case *pet.ACCController:
				replayBytes += c.Result.Overhead[pet.OverheadReplayBytes]
				for _, a := range ctl.Agents() {
					accSteps += a.Steps()
				}
			}
		}
		if k == 0 {
			p.e2e["fct_slowdown_avg"] = mean(petAvg)
			p.e2e["fct_slowdown_p99"] = mean(petP99)
			p.e2e["train_reward"] = mean(petReward)
		}
		return wall, fmt.Sprintf("%x", h.Sum(nil)), nil
	})
	if err != nil {
		return err
	}
	p.e2e["setup_s"] = median(setups)

	busy := 0.0
	for scheme, b := range cellBusy {
		p.layer["bench.cell_s."+string(scheme)] = b
		busy += b
	}
	p.layer["sim.events"] = float64(events)
	p.layer["sim.events_per_s"] = float64(events) / busy
	p.layer["bench.setup_s"] = sum(setups)
	p.layer["bench.pretrain_s"] = sum(pretrains)
	p.layer["acc.agent_steps"] = float64(accSteps)
	p.layer["acc.replay_bytes"] = float64(replayBytes)
	p.layer["core.agent_steps"] = float64(petSteps)
	p.layer["core.updates"] = float64(petUpdates)
	p.telemetryLayers()
	return nil
}

// Workload pretrain: the offline PPO training fleet, two workers, three
// merge rounds of 50ms episodes at 60% load, checkpointing every round.
const (
	pretrainWorkers = 2
	pretrainRounds  = 3
	pretrainEpisode = 50 * pet.Millisecond
)

func pretrainScenario(seed int64, reg *pet.Telemetry) pet.Scenario {
	return pet.Scenario{Seed: seed, Workload: pet.WebSearch(), Load: 0.6, Telemetry: reg}
}

// evalScenario deploys a trained bundle, training off, on a short tiny-fabric
// run: the fidelity check for a bundle the workload trains or serves.
func evalScenario(seed int64, models []byte, reg *pet.Telemetry) pet.Scenario {
	return pet.Scenario{
		Seed:           seed,
		Workload:       pet.WebSearch(),
		Load:           0.6,
		IncastFraction: 0.2,
		IncastFanIn:    3,
		Scheme:         pet.SchemePET,
		Models:         models,
		Warmup:         5 * pet.Millisecond,
		ExplicitWarmup: true,
		Duration:       15 * pet.Millisecond,
		Telemetry:      reg,
	}
}

// evaluate runs evalScenario for a bundle and checks the result.
func (p *pass) evaluate(seed int64, models []byte, parent int) (pet.Result, error) {
	id := p.tr.begin("evaluate bundle", parent)
	defer p.tr.end(id)
	env, err := pet.NewEnv(evalScenario(seed, models, p.reg))
	if err != nil {
		return pet.Result{}, err
	}
	res, _, err := p.runEnv(env, id)
	return res, err
}

func runPretrain(p *pass) error {
	if err := p.measure(); err != nil {
		return err
	}
	var (
		setups, rounds []float64
		updates        int
	)
	tmp, err := os.MkdirTemp("", "perfbench-pretrain-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	err = p.repeat("pretrain", func(k int, seed int64) (float64, string, error) {
		s := pretrainScenario(seed, p.reg)

		// The fleet assembles one environment per episode plus one for the
		// initial weights; time the same assembly from outside.
		episode := s
		episode.Scheme = pet.SchemePET
		episode.Train = true
		episode.ExplicitWarmup = true
		episode.Duration = pretrainEpisode
		setup := 0.0
		for i := 0; i < pretrainWorkers*pretrainRounds+1; i++ {
			id := p.tr.begin("NewEnv", p.root)
			t := time.Now()
			_, err := pet.NewEnv(episode)
			setup += time.Since(t).Seconds()
			p.tr.end(id)
			if err != nil {
				return 0, "", err
			}
		}
		setups = append(setups, setup)

		dir, err := os.MkdirTemp(tmp, "fleet-")
		if err != nil {
			return 0, "", err
		}
		fleetSpan := p.tr.begin("PretrainFleet", p.root)
		var (
			final    pet.FleetRound
			roundErr error
			last     = time.Now()
		)
		start := last
		res, err := pet.PretrainFleet(s, pretrainEpisode, pet.FleetConfig{
			Workers:    pretrainWorkers,
			Rounds:     pretrainRounds,
			Checkpoint: dir,
			Telemetry:  p.reg,
			OnRound: func(rs pet.FleetRound) {
				now := time.Now()
				p.tr.record(fmt.Sprintf("fleet round %d", rs.Round), fleetSpan, last, now)
				rounds = append(rounds, now.Sub(last).Seconds())
				last = now
				final = rs
				updates += rs.Updates
				if roundErr == nil && (rs.Degraded || rs.Episodes != pretrainWorkers || rs.Updates == 0) {
					roundErr = fmt.Errorf("round %d merged %d/%d episodes with %d updates",
						rs.Round, rs.Episodes, pretrainWorkers, rs.Updates)
				}
			},
		})
		wall := time.Since(start).Seconds()
		p.tr.end(fleetSpan)
		if err != nil {
			return 0, "", err
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, "", err
		}
		if roundErr == nil && res.Rounds != pretrainRounds {
			roundErr = fmt.Errorf("%d rounds completed, want %d", res.Rounds, pretrainRounds)
		}
		if roundErr != nil {
			roundErr = fmt.Errorf("pretrain seed %d: %w", seed, roundErr)
		}
		p.op(roundErr)

		// The trained bundle must load into the serving layer.
		id := p.tr.begin("NewInferService", p.root)
		_, err = pet.NewInferService(res.Models, pet.InferOptions{Replicas: 1})
		p.tr.end(id)
		if err != nil {
			err = fmt.Errorf("pretrain seed %d: trained bundle does not load: %w", seed, err)
		}
		p.op(err)

		if k == 0 {
			ev, err := p.evaluate(seed, res.Models, p.root)
			if err != nil {
				return 0, "", err
			}
			p.op(checkResult(fmt.Sprintf("pretrain seed %d evaluation", seed), ev))
			p.e2e["fct_slowdown_avg"] = ev.Overall.AvgSlowdown
			p.e2e["fct_slowdown_p99"] = ev.Overall.P99Slowdown
			p.e2e["train_reward"] = final.MeanReward
			p.digestf("pretrain evaluation %s", resultDigest(ev))
		}
		return wall, fmt.Sprintf("bundle %x reward %v", sha256.Sum256(res.Models), final.MeanReward), nil
	})
	if err != nil {
		return err
	}
	p.e2e["setup_s"] = median(setups)

	p.layer["bench.setup_s"] = sum(setups)
	p.layer["core.updates"] = float64(updates)
	p.layer["fleet.round_s_p50"] = median(rounds)
	p.telemetryLayers()
	if p.reg != nil {
		snap := p.reg.Snapshot()
		ep := snap.Histograms["fleet_episode_seconds"]
		p.layer["fleet.episode_s_p50"] = histQuantile(ep.Bounds, ep.Counts, 0.5)
		p.layer["fleet.merge_s"] = snap.Histograms["fleet_merge_seconds"].Sum
		p.layer["fleet.checkpoint_s"] = snap.Histograms["fleet_checkpoint_seconds"].Sum
		p.layer["fleet.episodes"] = float64(snap.Counters["fleet_episodes_total"])
	}
	return nil
}

// histQuantile estimates a quantile from fixed-bucket counts by linear
// interpolation inside the bucket holding it; counts[len(bounds)] is the
// overflow bucket, reported at the last bound.
func histQuantile(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	target := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		if cum+float64(c) >= target && c > 0 {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}
