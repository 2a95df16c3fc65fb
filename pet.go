// Package pet is a from-scratch Go reproduction of "PET: Multi-agent
// Independent PPO-based Automatic ECN Tuning for High-Speed Data Center
// Networks" (CLUSTER 2025).
//
// The package re-exports the library's public surface:
//
//   - A packet-level data-center network simulator (leaf-spine topologies,
//     ECMP, RED/ECN egress queues, link failures) with a DCQCN transport.
//   - PET itself: one Independent-PPO agent per switch, observing queue
//     length, link rates, marked rates, the current ECN configuration, the
//     incast degree and the mice/elephant flow ratio, and emitting discrete
//     (Kmin, Kmax, Pmax) RED configurations every Δt.
//   - The comparison schemes: ACC (DDQN with global experience replay) and
//     the static SECN1 (DCQCN) / SECN2 (HPCC) threshold settings.
//   - The experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	result, err := pet.Run(pet.Scenario{Scheme: pet.SchemePET, Train: true, Load: 0.5})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(result.Overall.AvgSlowdown)
//
// Or regenerate a whole figure:
//
//	runner := pet.NewRunner()
//	tables, err := runner.Fig4()
//	if err != nil {
//		log.Fatal(err)
//	}
//	for _, table := range tables {
//		fmt.Println(table)
//	}
package pet

import (
	"context"
	"flag"
	"log"
	"net/http"
	"time"

	"pet/internal/acc"
	"pet/internal/bench"
	"pet/internal/buildinfo"
	"pet/internal/core"
	"pet/internal/dcqcn"
	"pet/internal/dctcp"
	_ "pet/internal/dynecn" // register the AMT/QAECN baseline schemes
	"pet/internal/fleet"
	"pet/internal/modelstore"
	"pet/internal/netsim"
	"pet/internal/serve"
	"pet/internal/sim"
	_ "pet/internal/staticecn" // register the SECN1/SECN2 baseline schemes
	"pet/internal/stats"
	"pet/internal/telemetry"
	"pet/internal/topo"
	"pet/internal/trace"
	"pet/internal/workload"
)

// Simulation time. Time is an int64 count of picoseconds.
type Time = sim.Time

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Engine is the deterministic discrete-event scheduler driving a run.
type Engine = sim.Engine

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return sim.NewEngine() }

// Topology construction.
type (
	// LeafSpineConfig parameterizes a two-tier Clos fabric.
	LeafSpineConfig = topo.LeafSpineConfig
	// LeafSpine is a built fabric with host/leaf/spine indices.
	LeafSpine = topo.LeafSpine
)

// BuildLeafSpine constructs a leaf-spine fabric.
func BuildLeafSpine(cfg LeafSpineConfig) *LeafSpine { return topo.BuildLeafSpine(cfg) }

// PaperScale returns the paper's 288-host, 6-spine/12-leaf fabric.
func PaperScale() LeafSpineConfig { return topo.PaperScale() }

// SmallScale returns a 16-host fabric preserving the paper's shape.
func SmallScale() LeafSpineConfig { return topo.SmallScale() }

// TinyScale returns the smallest multi-path fabric (8 hosts), used by the
// default benchmarks.
func TinyScale() LeafSpineConfig { return topo.TinyScale() }

// MediumScale returns the 72-host middle step between SmallScale and
// PaperScale.
func MediumScale() LeafSpineConfig { return topo.MediumScale() }

// TopoPreset resolves a named fabric preset ("tiny", "small", "medium",
// "paper"). Unknown names yield an *UnknownTopoPresetError listing the known
// presets — the CLIs print it and exit 2 instead of panicking.
func TopoPreset(name string) (LeafSpineConfig, error) { return topo.Preset(name) }

// TopoPresets lists the preset names, smallest fabric first.
func TopoPresets() []string { return topo.Presets() }

// Topology validation errors (errors.As).
type (
	// TopoConfigError reports which LeafSpineConfig field is invalid and
	// why; LeafSpineConfig.Validate returns it and BuildLeafSpine panics
	// on it, so CLIs validate user-assembled configs first.
	TopoConfigError = topo.ConfigError
	// UnknownTopoPresetError reports a preset name TopoPreset does not know.
	UnknownTopoPresetError = topo.UnknownPresetError
)

// Sharded execution. A Scenario with Shards >= 2 runs its simulation on a
// partitioned engine — one event loop per fabric shard, synchronized by
// conservative lookahead — without changing any result byte (see DESIGN.md
// "Sharded engine").
type (
	// ShardedEngine is a set of per-shard event loops advancing in lockstep
	// epochs; Env.Sharded exposes the one driving a sharded scenario.
	ShardedEngine = sim.ShardedEngine
	// TopoPartition assigns every node of a fabric to an engine lane.
	TopoPartition = topo.Partition
)

// PartitionFabric maps a built fabric onto n lanes the way sharded
// scenarios do: hosts and transports on the control lane, switches spread
// over the rest.
func PartitionFabric(ls *LeafSpine, n int) TopoPartition { return topo.PartitionFabric(ls, n) }

// Network-level types.
type (
	// Network is the runtime packet network over a topology.
	Network = netsim.Network
	// NetworkConfig sets MTU, buffering, queue count and default ECN.
	NetworkConfig = netsim.Config
	// ECNConfig is one queue's RED/ECN marking configuration.
	ECNConfig = netsim.ECNConfig
	// Port is a switch or host egress port.
	Port = netsim.Port
)

// NewNetwork builds the runtime network for a topology graph.
func NewNetwork(eng *Engine, ls *LeafSpine, seed int64, cfg NetworkConfig) *Network {
	return netsim.New(eng, ls.Graph, seed, cfg)
}

// Transport types.
type (
	// Transport is the end-host congestion-control interface an assembled
	// Env drives (see RegisterTransport for plugging in new stacks).
	Transport = bench.Transport
	// DCQCNTransport is the rate-based DCQCN transport (the default).
	DCQCNTransport = dcqcn.Transport
	// TransportConfig holds DCQCN parameters.
	TransportConfig = dcqcn.Config
	// Flow is one sender→receiver transfer.
	Flow = dcqcn.Flow
	// DCTCPTransport is the window-based DCTCP transport.
	DCTCPTransport = dctcp.Transport
	// DCTCPConfig holds DCTCP parameters.
	DCTCPConfig = dctcp.Config
	// TransportKind selects the end-host stack in a Scenario by
	// registered name.
	TransportKind = bench.TransportKind
	// FlowEnd is the transport-agnostic flow-completion record.
	FlowEnd = bench.FlowEnd
)

// The built-in end-host transports.
const (
	TransportDCQCN = bench.TransportDCQCN
	TransportDCTCP = bench.TransportDCTCP
)

// NewTransport attaches a DCQCN transport to every host of the network.
func NewTransport(net *Network, cfg TransportConfig) *DCQCNTransport {
	return dcqcn.NewTransport(net, cfg)
}

// NewDCTCPTransport attaches a DCTCP transport to every host instead.
func NewDCTCPTransport(net *Network, cfg DCTCPConfig) *DCTCPTransport {
	return dctcp.NewTransport(net, cfg)
}

// Workload generation.
type (
	// CDF is a flow-size distribution.
	CDF = workload.CDF
	// Generator emits Poisson background and incast traffic.
	Generator = workload.Generator
	// GeneratorConfig parameterizes a Generator.
	GeneratorConfig = workload.Config
	// FlowMeta annotates generated flows.
	FlowMeta = workload.FlowMeta
)

// WebSearch returns the DCTCP web-search flow-size distribution.
func WebSearch() *CDF { return workload.WebSearch() }

// DataMining returns the VL2 data-mining flow-size distribution.
func DataMining() *CDF { return workload.DataMining() }

// RegisterWorkload makes a flow-size distribution selectable by name in
// scenario documents and the CLIs' -workload flag — the workload mirror of
// RegisterScheme. The built-ins register "websearch" and "datamining".
func RegisterWorkload(name string, build func() *CDF) { workload.Register(name, build) }

// WorkloadNames lists every registered workload, sorted.
func WorkloadNames() []string { return workload.Names() }

// UnknownWorkloadError reports a workload name no package has registered
// (errors.As).
type UnknownWorkloadError = workload.UnknownWorkloadError

// DefaultBetas returns the paper's per-workload reward weights: (0.3, 0.7)
// for Web Search (latency-leaning), (0.7, 0.3) for Data Mining
// (throughput-leaning).
func DefaultBetas(wl *CDF) (b1, b2 float64) { return bench.DefaultBetas(wl) }

// NewCDF builds a custom piecewise-linear flow-size distribution from knot
// points — the programmatic form of a scenario document's inline
// "workload": {"points": …} list.
func NewCDF(name string, points []workload.Point) (*CDF, error) {
	return workload.NewCDF(name, points)
}

// NewGenerator wires a workload generator to an engine and start callback.
func NewGenerator(eng *Engine, cfg GeneratorConfig, seed int64, start workload.StartFunc) *Generator {
	return workload.NewGenerator(eng, cfg, seed, start)
}

// PET — the paper's contribution.
type (
	// Controller is the PET multi-agent (DTDE) system over one network.
	Controller = core.Controller
	// ControllerConfig parameterizes PET (defaults follow Sec. 5.2).
	ControllerConfig = core.Config
	// SwitchAgent is one per-switch IPPO agent.
	SwitchAgent = core.SwitchAgent
	// NCM is the Network Condition Monitor of one agent.
	NCM = core.NCM
)

// NewController builds the PET controller: one IPPO agent per switch.
func NewController(net *Network, cfg ControllerConfig) *Controller {
	return core.NewController(net, cfg)
}

// Baselines.
type (
	// ACCController is the ACC (DDQN + global replay) baseline system.
	ACCController = acc.Controller
	// ACCConfig parameterizes the ACC baseline.
	ACCConfig = acc.Config
)

// NewACCController builds the ACC baseline controller.
func NewACCController(net *Network, cfg ACCConfig) *ACCController {
	return acc.NewController(net, cfg)
}

// Experiment harness.
type (
	// Scenario describes one simulation run end to end.
	Scenario = bench.Scenario
	// Result summarizes one completed run.
	Result = bench.Result
	// Env is an assembled, inspectable scenario.
	Env = bench.Env
	// Runner regenerates the paper's tables and figures.
	Runner = bench.Runner
	// Table is a printable experiment output.
	Table = bench.Table
	// Scheme selects the ECN control strategy under test.
	Scheme = bench.Scheme
)

// Scenario DSL: a versioned JSON document (ScenarioSpec) describes one
// complete run and round-trips into the exact Scenario a Go caller would
// have hand-built. The CLIs load documents via -scenario; petd accepts them
// embedded in POST /experiments.
type (
	// ScenarioSpec is the versioned scenario document.
	ScenarioSpec = bench.ScenarioSpec
	// TopoSpec selects a fabric preset plus overrides inside a document.
	TopoSpec = bench.TopoSpec
	// WorkloadSpec selects a registered or inline-custom workload.
	WorkloadSpec = bench.WorkloadSpec
	// EventSpec is one scheduled perturbation (Scenario.Events holds them).
	EventSpec = bench.EventSpec
	// EventBuilder validates an EventSpec of a registered kind and returns
	// the hook that applies it.
	EventBuilder = bench.EventBuilder
	// SimDuration is simulated time in a document ("20ms").
	SimDuration = bench.SimDuration
	// SpecError reports one invalid document element with its JSON path
	// (errors.As).
	SpecError = bench.SpecError
	// UnknownEventKindError reports an unregistered EventSpec.Kind
	// (errors.As).
	UnknownEventKindError = bench.UnknownEventKindError
)

// ScenarioSpecVersion is the current scenario-document version.
const ScenarioSpecVersion = bench.SpecVersion

// DecodeScenarioSpec parses a scenario document strictly: unknown keys and
// malformed values yield a *SpecError naming the JSON path.
func DecodeScenarioSpec(data []byte) (*ScenarioSpec, error) {
	return bench.DecodeScenarioSpec(data)
}

// LoadScenarioFile reads and decodes a scenario document from disk.
func LoadScenarioFile(path string) (*ScenarioSpec, error) { return bench.LoadScenarioFile(path) }

// ScenarioFromFlags resolves a command line's scenario: the document at
// path (or base when path is empty) with the CLI scenario flags fs defines
// (-seed, -load, -topo, -workload, …) written over it, resolved once by
// ToScenario. With a document only explicitly-set flags apply.
func ScenarioFromFlags(fs *flag.FlagSet, path string, base ScenarioSpec) (*ScenarioSpec, Scenario, error) {
	return bench.ScenarioFromFlags(fs, path, base)
}

// RegisterEventKind makes a perturbation kind selectable by name via
// EventSpec.Kind — the event mirror of RegisterScheme, and the one way to
// add a custom perturbation. The built-ins register link-down, link-up,
// load-change, workload-switch and incast-burst.
func RegisterEventKind(kind string, build EventBuilder) { bench.RegisterEventKind(kind, build) }

// EventKindNames lists every registered event kind, sorted.
func EventKindNames() []string { return bench.EventKindNames() }

// Pluggable control plane: schemes and transports register named builders
// and scenarios select them by name (see DESIGN.md).
type (
	// ControlScheme is the interface an assembled ECN control scheme
	// implements (Env.Control holds one).
	ControlScheme = bench.ControlScheme
	// ModelScheme is the optional ControlScheme extension for schemes with
	// serializable models (required for pre-training).
	ModelScheme = bench.ModelScheme
	// SchemeBuilder assembles a ControlScheme against an Env.
	SchemeBuilder = bench.SchemeBuilder
	// TransportBuilder assembles a Transport over an Env's network.
	TransportBuilder = bench.TransportBuilder
	// UnknownSchemeError reports an unregistered Scenario.Scheme.
	UnknownSchemeError = bench.UnknownSchemeError
	// UnknownTransportError reports an unregistered Scenario.Transport.
	UnknownTransportError = bench.UnknownTransportError
)

// Overhead metric keys the built-in schemes report in Result.Overhead.
const (
	OverheadReplayBytes  = bench.OverheadReplayBytes
	OverheadReplayMemory = bench.OverheadReplayMemory
	OverheadCentralBytes = bench.OverheadCentralBytes
)

// RegisterScheme makes a control scheme selectable by name via
// Scenario.Scheme — the hook for plugging in schemes from outside this
// module (see README "Registering a custom scheme").
func RegisterScheme(name Scheme, build SchemeBuilder) { bench.RegisterScheme(name, build) }

// RegisterTransport makes an end-host transport selectable by name via
// Scenario.Transport.
func RegisterTransport(name TransportKind, build TransportBuilder) {
	bench.RegisterTransport(name, build)
}

// SchemeNames lists every registered scheme, sorted.
func SchemeNames() []Scheme { return bench.SchemeNames() }

// ComparedSchemes lists the paper's four compared schemes — the fixed
// comparison set the figures use (SchemeNames lists every selectable one).
func ComparedSchemes() []Scheme { return bench.ComparedSchemes() }

// TransportNames lists every registered transport, sorted.
func TransportNames() []TransportKind { return bench.TransportNames() }

// The compared schemes.
const (
	SchemePET        = bench.SchemePET
	SchemePETAblated = bench.SchemePETAblated
	SchemeACC        = bench.SchemeACC
	SchemeSECN1      = bench.SchemeSECN1
	SchemeSECN2      = bench.SchemeSECN2
	SchemeAMT        = bench.SchemeAMT
	SchemeQAECN      = bench.SchemeQAECN
	SchemePETCTDE    = bench.SchemePETCTDE
)

// CTDEController is the MAPPO (centralized-training) PET variant.
type CTDEController = core.CTDEController

// NewCTDEController builds the CTDE variant: local actors, one central
// critic over the joint observation.
func NewCTDEController(net *Network, cfg ControllerConfig) *CTDEController {
	return core.NewCTDEController(net, cfg)
}

// Run assembles and executes a scenario. An unregistered scheme or
// transport name yields an *UnknownSchemeError / *UnknownTransportError.
func Run(s Scenario) (Result, error) { return bench.Run(s) }

// NewEnv assembles a scenario without running it, for custom wiring.
func NewEnv(s Scenario) (*Env, error) { return bench.NewEnv(s) }

// NewRunner returns the experiment runner with laptop-scale defaults.
func NewRunner() *Runner { return bench.NewRunner() }

// ResultTable renders one completed run as a metric/value table — the
// petbench output for spec-described scenarios without a paper figure.
func ResultTable(title string, res Result) *Table { return bench.ResultTable(title, res) }

// PretrainPET runs the offline training phase and returns a model bundle
// loadable via Scenario.Models.
func PretrainPET(s Scenario, dur Time) ([]byte, error) { return bench.PretrainPET(s, dur) }

// Parallel pre-training fleet (internal/fleet).
type (
	// FleetConfig parameterizes PretrainFleet: worker count, merge rounds,
	// checkpoint directory and resume behaviour, plus the fault-tolerance
	// knobs (retries, episode deadline, merge quorum, checkpoint history).
	FleetConfig = fleet.Config
	// FleetResult summarizes a completed fleet run.
	FleetResult = fleet.Result
	// FleetRound summarizes one synchronized merge round (FleetConfig.OnRound).
	FleetRound = fleet.RoundStats
	// FleetFaultPlan deterministically injects worker failures and
	// checkpoint corruption for chaos-testing a fleet (FleetConfig.Faults).
	FleetFaultPlan = fleet.FaultPlan
	// FleetFault is one injected episode fault at an exact
	// (round, worker, attempt) coordinate.
	FleetFault = fleet.Fault
)

// The injectable episode fault kinds.
const (
	FleetFaultFail  = fleet.FaultFail
	FleetFaultPanic = fleet.FaultPanic
	FleetFaultHang  = fleet.FaultHang
)

// PretrainFleet runs the offline training phase on a pool of parallel
// rollout workers: each round, every worker simulates one
// independently-seeded episode of dur from the current global models, and
// the per-worker weights are merged by averaging. With Workers=1 and
// Rounds=1 the result is bit-identical to PretrainPET(s, dur).
func PretrainFleet(s Scenario, dur Time, cfg FleetConfig) (FleetResult, error) {
	return PretrainFleetContext(context.Background(), s, dur, cfg)
}

// PretrainFleetContext is PretrainFleet with run-level cancellation: when
// ctx is cancelled mid-run (e.g. on SIGINT), the fleet drains in-flight
// episodes, writes a final checkpoint for the last completed round, and
// returns the partial result alongside an error wrapping ctx.Err(), so an
// interrupted run resumes instead of losing the round.
func PretrainFleetContext(ctx context.Context, s Scenario, dur Time, cfg FleetConfig) (FleetResult, error) {
	cfg.Episode = dur
	return fleet.PretrainContext(ctx, s, cfg)
}

// Live telemetry (internal/telemetry).
type (
	// Telemetry is a named registry of atomic counters, gauges and
	// fixed-bucket histograms. Attach one via Scenario.Telemetry or
	// FleetConfig.Telemetry to watch a run live; it is observation-only
	// and never perturbs simulation or training determinism.
	Telemetry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of every metric.
	TelemetrySnapshot = telemetry.Snapshot
	// TraceRecorder accumulates structured simulation events for CSV
	// export, including the fleet's per-round telemetry flush.
	TraceRecorder = trace.Recorder
)

// NewTelemetry returns an empty metrics registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// ServeTelemetry serves a registry over HTTP in the background: /metrics
// (Prometheus text format), /snapshot (JSON) and /debug/pprof. The returned
// server's Addr holds the bound address; shut it down with DrainTelemetry
// (graceful) or Close.
func ServeTelemetry(addr string, r *Telemetry) (*http.Server, error) {
	return telemetry.Serve(addr, r)
}

// DrainTelemetry gracefully stops a server returned by ServeTelemetry or
// Daemon.Start: it stops accepting connections and waits up to timeout for
// in-flight requests (a scrape, a pprof profile) to finish, then
// force-closes whatever remains.
func DrainTelemetry(srv *http.Server, timeout time.Duration) error {
	return telemetry.Drain(srv, timeout)
}

// TelemetryFlag is the shared -telemetry plumbing of the CLIs (petsim,
// petbench, pettrain): Register it on a FlagSet, Start it after parsing,
// and defer Stop. With the flag unset, Start and Stop are no-ops and
// Registry stays as the caller left it (usually nil, which every consumer
// accepts); with -telemetry :8080, Start creates Registry if the caller has
// not pre-seeded one and serves it in the background.
type TelemetryFlag struct {
	Addr     string     // the flag value
	Registry *Telemetry // served registry; created by Start when unset

	srv *http.Server
}

// Register installs the -telemetry flag.
func (t *TelemetryFlag) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Addr, "telemetry", "",
		"serve live metrics on this address (e.g. :8080): /metrics, /snapshot, /debug/pprof")
}

// Start begins serving if the flag was set; logf (nil = silent) receives
// one line with the bound endpoint.
func (t *TelemetryFlag) Start(logf func(format string, a ...any)) error {
	if t.Addr == "" {
		return nil
	}
	if t.Registry == nil {
		t.Registry = NewTelemetry()
	}
	srv, err := ServeTelemetry(t.Addr, t.Registry)
	if err != nil {
		return err
	}
	t.srv = srv
	if logf != nil {
		logf("telemetry: http://%s/metrics (also /snapshot, /debug/pprof)", srv.Addr)
	}
	return nil
}

// Stop drains the endpoint, letting an in-flight scrape finish.
func (t *TelemetryFlag) Stop() error {
	if t.srv == nil {
		return nil
	}
	return DrainTelemetry(t.srv, 5*time.Second)
}

// NewTraceRecorder returns a recorder keeping at most limit events
// (0 = unlimited).
func NewTraceRecorder(limit int) *TraceRecorder { return trace.NewRecorder(limit) }

// Resident control plane (internal/serve) — the subsystem behind the petd
// daemon: an experiment lifecycle API, SSE telemetry streaming and a
// batched inference service on one HTTP listener.
type (
	// Daemon is the assembled control plane.
	Daemon = serve.Server
	// DaemonConfig parameterizes a Daemon.
	DaemonConfig = serve.Config
	// ExperimentSpec is the POST /experiments wire format.
	ExperimentSpec = serve.ExperimentSpec
	// JobStatus is the JSON view of one managed experiment.
	JobStatus = serve.JobStatus
	// JobState is an experiment's lifecycle position.
	JobState = serve.JobState
	// InferService answers observation batches from a replica pool.
	InferService = serve.InferService
	// InferOptions parameterizes NewInferService.
	InferOptions = serve.InferOptions
	// InferRequest is the POST /infer wire format.
	InferRequest = serve.InferRequest
	// InferResponse answers an InferRequest.
	InferResponse = serve.InferResponse
	// ObsRequest is one switch's observation within an InferRequest.
	ObsRequest = serve.ObsRequest
	// ECNAction is one switch's resulting RED configuration.
	ECNAction = serve.ECNAction
	// ModelRef identifies the exact model version that answered a batch.
	ModelRef = serve.ModelRef
	// GateConfig parameterizes the shadow-eval promotion gate.
	GateConfig = serve.GateConfig
	// GateReport is the gate's scored verdict.
	GateReport = serve.GateReport
	// GateError reports a candidate the gate rejected (errors.As).
	GateError = serve.GateError
	// SwapError reports a hot swap rejected with serving untouched
	// (errors.As).
	SwapError = serve.SwapError
	// PromotionResult is a successful promotion's summary.
	PromotionResult = serve.PromotionResult
	// JobJournal is the daemon's durable job journal: append-only JSONL,
	// replayed at boot so jobs survive a daemon death (DaemonConfig.Journal).
	JobJournal = serve.Journal
	// JournalEntry is one job-journal line: a spec or a status transition.
	JournalEntry = serve.JournalEntry
	// ReplayedJob is one job reconstructed from the journal at boot.
	ReplayedJob = serve.ReplayedJob
	// AdmissionConfig bounds /infer admission, deadlines, shedding and the
	// circuit breaker (DaemonConfig.Admission).
	AdmissionConfig = serve.AdmissionConfig
	// WatchdogConfig enables the hung-job watchdog (DaemonConfig.Watchdog).
	WatchdogConfig = serve.WatchdogConfig
	// ServeFaultPlan injects deterministic serve-layer faults for chaos
	// tests (DaemonConfig.Faults), mirroring FleetFaultPlan for training.
	ServeFaultPlan = serve.FaultPlan
	// ReplicaPanicError reports an /infer batch whose compute panicked; the
	// replica was recycled and the pool stayed whole (errors.As).
	ReplicaPanicError = serve.ReplicaPanicError
)

// ErrInferOverloaded reports an /infer request shed because no replica came
// free within its deadline (errors.Is).
var ErrInferOverloaded = serve.ErrOverloaded

// OpenJobJournal opens (creating if needed) the job journal at path and
// replays its history; logf (nil = silent) receives one warning per skipped
// entry. Hand the result to DaemonConfig.Journal.
func OpenJobJournal(path string, logf func(format string, a ...any)) (*JobJournal, error) {
	return serve.OpenJournal(path, logf, nil)
}

// NewDaemon assembles the control plane; serve it with Daemon.Start and
// stop it with Daemon.Shutdown.
func NewDaemon(cfg DaemonConfig) *Daemon { return serve.New(cfg) }

// NewInferService loads a model bundle (from pettrain, a fleet checkpoint,
// or a finished pretrain job) into a pool of controller replicas for
// serving.
func NewInferService(bundle []byte, opts InferOptions) (*InferService, error) {
	return serve.NewInferService(bundle, opts)
}

// LoadFleetCheckpoint reads the newest intact bundle of a fleet checkpoint
// directory — a model store whose versions carry round records — walking
// the version log newest-first past any version whose bytes fail their
// sha256 or are gone. The returned round counts the completed merge rounds
// the bundle covers. Every candidate skipped during fallback is logged
// through the standard logger with its typed error, so an operator can see
// why round N was passed over; use LoadFleetCheckpointLogged to redirect or
// silence that.
func LoadFleetCheckpoint(dir string) (models []byte, round int, err error) {
	return LoadFleetCheckpointLogged(dir, log.Printf)
}

// LoadFleetCheckpointLogged is LoadFleetCheckpoint with an explicit sink
// for the per-candidate fallback diagnostics (nil = silent).
func LoadFleetCheckpointLogged(dir string, logf func(format string, a ...any)) (models []byte, round int, err error) {
	m, models, _, err := fleet.LoadCheckpoint(dir, logf)
	if err != nil {
		return nil, 0, err
	}
	return models, m.Round, nil
}

// Versioned model store (internal/modelstore) — the subsystem behind petd's
// /models API: content-addressed bundle versions, named channels and GC.
type (
	// ModelStore is an on-disk, content-addressed, versioned store of model
	// bundles.
	ModelStore = modelstore.Store
	// ModelVersion describes one stored bundle version.
	ModelVersion = modelstore.VersionInfo
)

// The store's well-known channel names: what /infer answers with, what the
// gate evaluates next, and what the last promotion displaced.
const (
	ModelChannelServing   = modelstore.ChannelServing
	ModelChannelCandidate = modelstore.ChannelCandidate
	ModelChannelPrevious  = modelstore.ChannelPrevious
)

// OpenModelStore opens (or initializes) a model store rooted at dir.
func OpenModelStore(dir string) (*ModelStore, error) { return modelstore.Open(dir) }

// BuildInfo is the build identity of the running binary (module version,
// VCS revision, toolchain), as served by petd's GET /version and printed by
// every CLI's -version flag.
type BuildInfo = buildinfo.Info

// ReadBuildInfo reports the running binary's build identity.
func ReadBuildInfo() BuildInfo { return buildinfo.Read() }

// Statistics.
type (
	// Summary aggregates FCTs of one flow bucket.
	Summary = stats.Summary
	// FCTRecord is one completed flow's statistics.
	FCTRecord = stats.FCTRecord
)
