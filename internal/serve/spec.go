// Package serve is the resident control plane: the subsystem behind the
// petd daemon. It hosts three services over one HTTP listener:
//
//   - an experiment lifecycle API (POST/GET/DELETE /experiments) launching
//     scheme×transport×scenario runs and fleet pre-training jobs in managed
//     goroutines with context cancellation,
//   - live telemetry streaming (GET /events), pushing periodic registry
//     snapshots and job states as server-sent events on top of the pull
//     /metrics and /snapshot endpoints, and
//   - a batched inference service (POST /infer) answering observation
//     batches with RED (Kmin, Kmax, Pmax) actions from a model bundle
//     loaded at startup, over a pool of controller replicas so the policy
//     hot path stays single-threaded per replica and allocation-free.
//
// Bundles arrive sha256-verified through the versioned model store, the one
// persistence format shared with the fleet's checkpoints.
package serve

import (
	"encoding/json"
	"fmt"

	"pet/internal/bench"
)

// ExperimentSpec is the wire format of POST /experiments: a declarative
// description of one job. Zero values take the same defaults the CLIs use.
type ExperimentSpec struct {
	// Kind selects the job type: "run" (default) executes one measurement
	// scenario; "pretrain" runs the offline training fleet.
	Kind string `json:"kind,omitempty"`

	// Scenario, when present, is a complete bench.ScenarioSpec document —
	// the same versioned JSON the CLIs load with -scenario — and is
	// mutually exclusive with the flat scenario fields below (scheme,
	// transport, topo, workload, load, incast_*, seed, train). It passes
	// through bench.DecodeScenarioSpec, so unknown keys and bad values come
	// back as 400s naming the offending JSON path. Warmup/Duration remain
	// job-level knobs and override the document's when set.
	Scenario json.RawMessage `json:"scenario,omitempty"`

	Scheme    string `json:"scheme,omitempty"`    // registered scheme name (default PET)
	Transport string `json:"transport,omitempty"` // registered transport name (default dcqcn)
	Topo      string `json:"topo,omitempty"`      // tiny|small|paper (default tiny)
	Workload  string `json:"workload,omitempty"`  // websearch|datamining (default websearch)

	Load           float64 `json:"load,omitempty"`            // offered load fraction (default 0.6)
	IncastFraction float64 `json:"incast_fraction,omitempty"` // fraction of load delivered as incast
	IncastFanIn    int     `json:"incast_fan_in,omitempty"`   // senders per incast group

	Seed int64 `json:"seed,omitempty"`

	// Train enables online incremental training (default true, matching
	// petsim); explicit false disables it.
	Train *bool `json:"train,omitempty"`

	// Warmup and Duration are Go duration strings ("20ms", "1s") of
	// simulated time; empty strings take the scenario defaults. For
	// pretrain jobs Duration is the per-episode training time.
	Warmup   string `json:"warmup,omitempty"`
	Duration string `json:"duration,omitempty"`

	// Pretrain-only fleet knobs (see pettrain).
	Workers    int    `json:"workers,omitempty"`    // parallel rollout workers
	Rounds     int    `json:"rounds,omitempty"`     // synchronized merge rounds
	Checkpoint string `json:"checkpoint,omitempty"` // crash-safe checkpoint directory
	Resume     bool   `json:"resume,omitempty"`     // continue from Checkpoint
	Out        string `json:"out,omitempty"`        // write the trained bundle here
	Publish    bool   `json:"publish,omitempty"`    // put the trained bundle into the model store as "candidate"
}

// The job kinds.
const (
	KindRun      = "run"
	KindPretrain = "pretrain"
)

// normalized validates the spec and fills defaults. Every scenario field is
// checked by resolving the spec, so a bad one fails the launch with a 400
// instead of failing the job asynchronously.
func (sp ExperimentSpec) normalized() (ExperimentSpec, error) {
	switch sp.Kind {
	case "":
		sp.Kind = KindRun
	case KindRun, KindPretrain:
	default:
		return sp, fmt.Errorf("serve: unknown job kind %q (want %s|%s)", sp.Kind, KindRun, KindPretrain)
	}
	if sp.Kind != KindPretrain {
		if sp.Workers != 0 || sp.Rounds != 0 || sp.Checkpoint != "" || sp.Resume || sp.Out != "" || sp.Publish {
			return sp, fmt.Errorf("serve: fleet fields (workers/rounds/checkpoint/resume/out/publish) require kind %q", KindPretrain)
		}
	}
	if len(sp.Scenario) > 0 {
		if sp.Scheme != "" || sp.Transport != "" || sp.Topo != "" || sp.Workload != "" || sp.Load != 0 ||
			sp.IncastFraction != 0 || sp.IncastFanIn != 0 || sp.Seed != 0 || sp.Train != nil {
			return sp, fmt.Errorf("serve: an embedded scenario document is mutually exclusive with the flat scenario fields (scheme/transport/topo/workload/load/incast_*/seed/train)")
		}
	} else if sp.Scheme == "" {
		// The scenario default is the static SECN1 baseline; the daemon's
		// reason to exist is the learned controller, so default like petsim.
		sp.Scheme = string(bench.SchemePET)
	}
	if _, err := sp.scenario(); err != nil {
		return sp, err
	}
	return sp, nil
}

// scenario resolves the scenario a job describes through its document: the
// embedded one, or the flat fields translated field for field (training on
// unless "train" is false). Warmup and Duration override either; zero or
// empty leaves the document's window or the default. For pretrain jobs
// Duration is the episode length.
func (sp ExperimentSpec) scenario() (bench.Scenario, error) {
	var doc *bench.ScenarioSpec
	if len(sp.Scenario) > 0 {
		var err error
		if doc, err = bench.DecodeScenarioSpec(sp.Scenario); err != nil {
			return bench.Scenario{}, err
		}
	} else {
		doc = &bench.ScenarioSpec{
			Scheme:         sp.Scheme,
			Transport:      sp.Transport,
			Seed:           sp.Seed,
			IncastFraction: sp.IncastFraction,
			IncastFanIn:    sp.IncastFanIn,
			Train:          sp.Train == nil || *sp.Train,
		}
		if sp.Topo != "" {
			doc.Topo = &bench.TopoSpec{Preset: sp.Topo}
		}
		if sp.Workload != "" {
			doc.Workload = &bench.WorkloadSpec{Name: sp.Workload}
		}
		if sp.Load != 0 {
			doc.Load = &sp.Load
		}
	}
	for _, w := range []struct {
		name, value string
		dst         **bench.SimDuration
	}{{"warmup", sp.Warmup, &doc.Warmup}, {"duration", sp.Duration, &doc.Duration}} {
		if w.value == "" {
			continue
		}
		var d bench.SimDuration
		if err := d.Set(w.value); err != nil {
			return bench.Scenario{}, fmt.Errorf("serve: %s: %w", w.name, err)
		}
		if d != 0 {
			*w.dst = &d
		}
	}
	return doc.ToScenario()
}
