// Command perfbench is the repository benchmark. It runs one workload
// against the public facade (package pet and the serve layer), checks that
// the outputs are correct, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 5.1, "unit": "s"}, ...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload fabric --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics. With --trace 1 the
// run executes the workload's fixed work twice, untraced and then traced
// (telemetry registry, CPU profile, spans), checks that both passes produced
// the same simulated statistics, and prints the per-layer metrics. See
// README.md for what each workload and metric is for.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pet"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the system sees, in print order.
// Every workload reports every one of them (README.md gives the meaning of
// each on each workload).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"heap_peak_mb", "MB"},
	{"fct_slowdown_avg", "x"},
	{"fct_slowdown_p99", "x"},
	{"train_reward", "1"},
	{"infer_p50_ms", "ms"},
}

// selfLayers are the layers whose CPU self time a traced pass reports as
// <layer>.self_s.
var selfLayers = []string{
	"sim", "netsim", "topo", "dcqcn", "workload", "stats", "bench",
	"core", "ppo", "acc", "ddqn", "nn", "mat", "fleet",
	"serve", "json", "net", "telemetry", "runtime", "other",
}

// perLayer lists the metrics of single layers a traced pass reports.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"netsim.tx_packets", "count"},
		{"netsim.ecn_marks", "count"},
		{"netsim.drops_overflow", "count"},
		{"netsim.drops_linkdown", "count"},
		{"netsim.drops_unreachable", "count"},
		{"dcqcn.cnps", "count"},
		{"dcqcn.rate_cuts", "count"},
		{"dcqcn.retransmits", "count"},
		{"dcqcn.flows_completed", "count"},
		{"ddqn.learn_cum_s", "s"},
		{"acc.agent_steps", "count"},
		{"acc.replay_bytes", "B"},
		{"ppo.update_cum_s", "s"},
		{"ppo.act_cum_s", "s"},
		{"ppo.updates", "count"},
		{"core.agent_steps", "count"},
		{"core.updates", "count"},
		{"fleet.episode_s_p50", "s"},
		{"fleet.round_s_p50", "s"},
		{"fleet.merge_s", "s"},
		{"fleet.checkpoint_s", "s"},
		{"fleet.episodes", "count"},
		{"bench.setup_s", "s"},
		{"bench.pretrain_s", "s"},
		{"bench.cell_s.PET", "s"},
		{"bench.cell_s.ACC", "s"},
		{"bench.cell_s.SECN1", "s"},
		{"bench.cell_s.SECN2", "s"},
		{"serve.compute_us_p50", "us"},
		{"serve.rtt_us_p50", "us"},
		{"serve.http_overhead_us", "us"},
		{"serve.shed", "count"},
		{"serve.errors", "count"},
		{"serve.queue_depth_max", "count"},
		{"infer_p99_ms", "ms"},
		{"infer_max_rps", "req/s"},
		{"infer.gen_late_ms_p99", "ms"},
		{"runtime.gc_cpu_s", "s"},
		{"runtime.alloc_mb", "MB"},
		{"profile.samples", "count"},
		{"profile.cpu_s", "s"},
		{"trace.wall_s_untraced", "s"},
		{"trace.wall_s_traced", "s"},
		{"trace.overhead_pct", "%"},
	}
	for _, l := range selfLayers {
		specs = append(specs, metricSpec{l + ".self_s", "s"})
	}
	return specs
}()

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*pass) error{
	"fabric":   runFabric,
	"fig4":     runFig4,
	"pretrain": runPretrain,
	"infer":    runInfer,
}

// pass is one execution of a workload: its settings, and what it measured.
type pass struct {
	seed   int64
	budget time.Duration // how long the pass measures
	extend bool          // repeat work beyond the fixed minimum until budget runs out
	start  time.Time

	// Tracing; all nil in an untraced pass.
	reg      *pet.Telemetry
	tr       *tracer
	profile  *cpuProfile  // running from measure until the pass ends
	prof     *profileData // the decoded profile
	cpuStart float64      // process CPU seconds when the profile started
	cpu      float64      // process CPU seconds the profiled phase used

	runtime *runtimeSampler // heap peak per repetition, GC and allocation totals

	root int // the pass's root span

	e2e   map[string]float64
	layer map[string]float64
	reps  []float64 // host seconds of each repetition of the fixed work

	ladder      []ladderProbe // the infer workload's rate search
	refSegments []ladderProbe // and its reference-rate segments

	attempted, failed int
	failures          []string
	digest            hash.Hash // over the simulated statistics, never over wall-clock time
}

func newPass(seed int64, budget time.Duration, extend, traced bool) *pass {
	p := &pass{
		seed:   seed,
		budget: budget,
		extend: extend,
		e2e:    map[string]float64{},
		layer:  map[string]float64{},
		digest: sha256.New(),
	}
	if traced {
		p.reg = pet.NewTelemetry()
		p.tr = newTracer()
	}
	return p
}

// op counts one attempted operation and, when err is non-nil, one failure.
func (p *pass) op(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.failures) < 20 {
			p.failures = append(p.failures, err.Error())
		}
	}
}

// rep closes one repetition of a workload's fixed work that took wall
// seconds. A collection between repetitions lets each start from the same
// heap, so heap_peak_mb, the median of the repetitions' peaks, does not
// depend on garbage a previous repetition left behind.
func (p *pass) rep(wall float64) {
	p.reps = append(p.reps, wall)
	runtime.GC()
	p.runtime.lap()
}

// more reports whether a workload should start repetition k: always below
// min, and afterwards while another repetition of the typical length still
// fits in the budget.
func (p *pass) more(k, min int) bool {
	if k < min {
		return true
	}
	return p.extend && time.Since(p.start).Seconds()+median(p.reps) <= p.budget.Seconds()
}

// digestf writes one line of simulated statistics into the pass digest.
func (p *pass) digestf(format string, a ...any) {
	fmt.Fprintf(p.digest, format+"\n", a...)
}

// execute runs the workload under the runtime sampler. Each workload calls
// measure when its measured phase begins.
func (p *pass) execute(name string, wl func(*pass) error) error {
	p.runtime = startRuntimeSampler()
	p.start = time.Now()
	p.root = p.tr.begin(name, 0)
	err := wl(p)
	p.tr.end(p.root)
	if p.profile != nil {
		p.cpu = processCPU() - p.cpuStart
		var perr error
		p.prof, perr = p.profile.stop()
		err = errors.Join(err, perr)
	}
	p.runtime.finish()
	p.e2e["heap_peak_mb"] = p.runtime.peakMB()
	p.layer["runtime.gc_cpu_s"] = p.runtime.gcCPU
	p.layer["runtime.alloc_mb"] = p.runtime.allocBytes / (1 << 20)
	if p.prof != nil {
		p.profileLayers()
	}
	return err
}

// measure marks the start of the measured phase: a traced pass starts its
// CPU profile here.
func (p *pass) measure() error {
	if p.tr == nil || p.profile != nil {
		return nil
	}
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	p.profile = prof
	p.cpuStart = processCPU()
	return nil
}

// profileLayers turns the pass's CPU profile into per-layer metrics: each
// layer's share of the samples times the CPU time the pass used.
func (p *pass) profileLayers() {
	n := p.prof.total()
	p.layer["profile.samples"] = float64(n)
	p.layer["profile.cpu_s"] = p.cpu
	if n == 0 {
		return
	}
	secs := func(samples int64) float64 { return p.cpu * float64(samples) / float64(n) }
	self := p.prof.selfByLayer()
	for _, l := range selfLayers {
		p.layer[l+".self_s"] = secs(self[l])
	}
	p.layer["ddqn.learn_cum_s"] = secs(p.prof.cumUnder("pet/internal/rl/ddqn.(*Agent).learn"))
	p.layer["ppo.update_cum_s"] = secs(p.prof.cumUnder("pet/internal/rl/ppo.(*Agent).Update"))
	p.layer["ppo.act_cum_s"] = secs(p.prof.cumUnder(
		"pet/internal/rl/ppo.(*Agent).Act", "pet/internal/rl/ppo.(*Agent).ActionsInto"))
}

// counter reads a telemetry counter of a traced pass (0 when untraced).
func (p *pass) counter(name string) float64 {
	return float64(p.reg.Counter(name).Value())
}

// telemetryLayers copies the sim-stack counters of a traced pass.
func (p *pass) telemetryLayers() {
	for metric, counter := range map[string]string{
		"netsim.tx_packets":        "netsim_tx_packets_total",
		"netsim.ecn_marks":         "netsim_ecn_marks_total",
		"netsim.drops_overflow":    "netsim_drops_overflow_total",
		"netsim.drops_linkdown":    "netsim_drops_linkdown_total",
		"netsim.drops_unreachable": "netsim_drops_unreachable_total",
		"dcqcn.cnps":               "dcqcn_cnps_total",
		"dcqcn.rate_cuts":          "dcqcn_rate_cuts_total",
		"dcqcn.retransmits":        "dcqcn_retransmits_total",
		"dcqcn.flows_completed":    "dcqcn_flows_completed_total",
		"ppo.updates":              "ppo_updates_total",
	} {
		p.layer[metric] = p.counter(counter)
	}
}

// result is the file each run writes next to its printed summary.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Host      hostInfo               `json:"host"`
	Digest    string                 `json:"digest"`
	Outcome   outcome                `json:"outcome"`
	EndToEnd  map[string]float64     `json:"end_to_end"`
	RepWallS  []float64              `json:"rep_wall_s,omitempty"`
	RepHeapMB []float64              `json:"rep_heap_peak_mb,omitempty"`
	Ladder    []ladderProbe          `json:"ladder,omitempty"`
	Reference []ladderProbe          `json:"reference,omitempty"`
	PerLayer  map[string]float64     `json:"per_layer,omitempty"`
	Failures  []string               `json:"failures,omitempty"`
	Spans     []spanRecord           `json:"spans,omitempty"`
	SpanTotal map[string]spanSummary `json:"span_summary,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: fabric, fig4, pretrain or infer")
		seed    = fs.Int64("seed", 1, "seed the workload's inputs derive from")
		secs    = fs.Int("seconds", 25, "how long one run measures")
		traceOn = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *secs < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	budget := time.Duration(*secs) * time.Second
	res := result{Workload: *name, Seed: *seed, Seconds: *secs, Trace: *traceOn == 1, Host: readHost()}
	var p *pass
	if *traceOn == 0 {
		p = newPass(*seed, budget, true, false)
		if err := p.execute(*name, wl); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		res.EndToEnd = p.e2e
		res.Outcome = report(p, endToEnd, p.e2e)
	} else {
		// The same fixed work twice: untraced, then traced. Tracing is
		// observation-only, so both passes must agree on every simulated
		// statistic.
		plain := newPass(*seed, budget/2, false, false)
		if err := plain.execute(*name, wl); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (untraced pass): %v\n", *name, err)
			return 1
		}
		p = newPass(*seed, budget/2, false, true)
		if err := p.execute(*name, wl); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (traced pass): %v\n", *name, err)
			return 1
		}
		plainDigest := hex.EncodeToString(plain.digest.Sum(nil))
		fmt.Fprintf(stdout, "digest untraced %s\n", plainDigest)
		var err error
		if plainDigest != hex.EncodeToString(p.digest.Sum(nil)) {
			err = errors.New("traced and untraced passes simulated different statistics")
		}
		p.op(err)
		p.attempted += plain.attempted
		p.failed += plain.failed
		p.failures = append(p.failures, plain.failures...)
		p.layer["trace.wall_s_untraced"] = plain.e2e["wall_s"]
		p.layer["trace.wall_s_traced"] = p.e2e["wall_s"]
		p.layer["trace.overhead_pct"] = 100 * (p.e2e["wall_s"]/plain.e2e["wall_s"] - 1)
		res.EndToEnd = p.e2e
		for _, m := range perLayer {
			p.layer[m.Name] += 0 // list every per-layer metric, zeros too
		}
		res.PerLayer = p.layer
		res.Spans = p.tr.records()
		res.SpanTotal = p.tr.summary()
		res.Outcome = report(p, perLayer, p.layer)
	}
	res.RepWallS = p.reps
	res.Ladder = p.ladder
	res.Reference = p.refSegments
	for _, b := range p.runtime.laps {
		res.RepHeapMB = append(res.RepHeapMB, b/(1<<20))
	}
	res.Digest = hex.EncodeToString(p.digest.Sum(nil))
	res.Failures = p.failures

	fmt.Fprintf(stdout, "host nproc=%d cpu=%q go=%s\n", res.Host.NumCPU, res.Host.CPUModel, res.Host.GoVersion)
	fmt.Fprintf(stdout, "digest %s\n", res.Digest)
	for _, f := range res.Failures {
		fmt.Fprintf(stdout, "FAILED %s\n", f)
	}
	printMetrics(stdout, "end-to-end", endToEnd, res.EndToEnd)
	if res.PerLayer != nil {
		printMetrics(stdout, "per-layer", perLayer, res.PerLayer)
	}
	if err := writeResult(resultDir, res, p.profile); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.Outcome)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report builds the printed outcome from the listed metrics.
func report(p *pass, specs []metricSpec, values map[string]float64) outcome {
	o := outcome{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		o.Metrics[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	return o
}

func printMetrics(w io.Writer, title string, specs []metricSpec, values map[string]float64) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, s := range specs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", s.Name, values[s.Name], s.Unit)
	}
}

// resultDir, relative to the checkout root run.sh runs from, holds a result
// file per run.
var resultDir = filepath.Join(".bench_build", "perfbench")

// writeResult writes the run's result file and, for a traced run, its CPU
// profile (readable with go tool pprof).
func writeResult(dir string, res result, prof *cpuProfile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t", res.Workload, res.Seed, res.Trace))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("writing result: %w", err)
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if prof != nil {
		return os.WriteFile(base+".pprof", prof.buf.Bytes(), 0o644)
	}
	return nil
}
