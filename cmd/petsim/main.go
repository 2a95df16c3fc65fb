// Command petsim runs one simulation scenario and prints its statistics.
//
// Usage:
//
//	petsim -scheme PET -load 0.6 -workload websearch -train
//	petsim -scheme SECN1 -topo small -duration 100ms
//	petsim -scheme PET -models pet.model      # offline-trained weights
//	petsim -scheme PET -transport dctcp       # window-based end hosts
//	petsim -telemetry :8080                   # live /metrics while running
//	petsim -list-schemes                      # registered scheme names
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"pet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the flags run reads itself. The scenario flags (-scheme,
// -load, -topo, …) are read by name when pet.ScenarioFromFlags resolves
// the command line into a scenario document.
type options struct {
	scenario, topo, workload, models, trace *string
	load                                    *float64
	shards                                  *int
	listS, listT, listW, listE, version     *bool
	telemetry                               pet.TelemetryFlag
}

func newFlags(stderr io.Writer) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("petsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{
		scenario: fs.String("scenario", "", "load a scenario document (JSON); explicitly-set flags override its fields"),
		topo:     fs.String("topo", "tiny", "fabric preset: "+strings.Join(pet.TopoPresets(), "|")),
		shards:   fs.Int("shards", 1, "event-loop shards (0 = one per CPU, 1 = single loop)"),
		workload: fs.String("workload", "websearch", "registered workload name: "+strings.Join(pet.WorkloadNames(), "|")),
		load:     fs.Float64("load", 0.6, "offered load fraction (0,1]"),
		models:   fs.String("models", "", "PET model bundle from pettrain"),
		trace:    fs.String("trace", "", "write an event trace CSV to this path"),
		listS:    fs.Bool("list-schemes", false, "print the registered scheme names and exit"),
		listT:    fs.Bool("list-transports", false, "print the registered transport names and exit"),
		listW:    fs.Bool("list-workloads", false, "print the registered workload names and exit"),
		listE:    fs.Bool("list-events", false, "print the registered event kinds and exit"),
		version:  fs.Bool("version", false, "print the build identity and exit"),
	}
	fs.String("scheme", "PET", "registered scheme name (see -list-schemes)")
	fs.String("transport", "dcqcn", "registered end-host transport (see -list-transports)")
	fs.Int("spines", 0, "override the preset's spine count")
	fs.Int("leaves", 0, "override the preset's leaf count")
	fs.Int("hosts", 0, "override the preset's hosts per leaf")
	fs.Float64("incast", 0.2, "fraction of load delivered as incast groups")
	fs.Int("fanin", 3, "senders per incast group")
	fs.Bool("train", true, "online incremental training (learned schemes)")
	fs.Duration("warmup", 20*time.Millisecond, "simulated warmup before measurement")
	fs.Duration("duration", 60*time.Millisecond, "simulated measurement window")
	fs.Int64("seed", 1, "root random seed")
	o.telemetry.Register(fs)
	return fs, o
}

// resolve turns the parsed command line into the run's scenario: the
// -scenario document (or, without one, every flag's value) with the
// explicitly-set flags written over it, -shards 0 meaning one per CPU.
func (o *options) resolve(fs *flag.FlagSet) (*pet.ScenarioSpec, pet.Scenario, error) {
	if *o.shards == 0 {
		*o.shards = runtime.NumCPU()
	}
	return pet.ScenarioFromFlags(fs, *o.scenario, pet.ScenarioSpec{})
}

func run(args []string, stdout, stderr io.Writer) int {
	fs, o := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *o.version {
		fmt.Fprintln(stdout, pet.ReadBuildInfo())
		return 0
	}
	if *o.listS {
		for _, name := range pet.SchemeNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *o.listT {
		for _, name := range pet.TransportNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *o.listW {
		for _, name := range pet.WorkloadNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if *o.listE {
		for _, name := range pet.EventKindNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}

	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "petsim: "+format+"\n", args...)
		return 2
	}

	spec, s, err := o.resolve(fs)
	if err != nil {
		return fatalf("%v", err)
	}
	runLabel := spec.Name
	if runLabel == "" {
		runLabel = *o.scenario
	}
	if *o.models != "" {
		data, err := os.ReadFile(*o.models)
		if err != nil {
			return fatalf("reading models: %v", err)
		}
		s.Models = data
	}

	tf := &o.telemetry
	if err := tf.Start(func(format string, a ...any) {
		fmt.Fprintf(stderr, format+"\n", a...)
	}); err != nil {
		return fatalf("telemetry: %v", err)
	}
	defer tf.Stop()
	s.Telemetry = tf.Registry

	s.Trace = *o.trace != ""
	start := time.Now()
	env, err := pet.NewEnv(s)
	if err != nil {
		return fatalf("%v", err)
	}
	res := env.Run()
	wall := time.Since(start)
	if *o.trace != "" {
		f, err := os.Create(*o.trace)
		if err != nil {
			return fatalf("creating trace: %v", err)
		}
		if err := env.Trace.WriteCSV(f); err != nil {
			return fatalf("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			return fatalf("closing trace: %v", err)
		}
		fmt.Fprintf(stdout, "trace       %d events -> %s\n", env.Trace.Len(), *o.trace)
	}

	label := fmt.Sprintf("%s, load %.0f%%, %s", *o.workload, *o.load*100, *o.topo)
	if *o.scenario != "" {
		label = fmt.Sprintf("scenario %s, load %.0f%%", runLabel, res.Load*100)
	}
	fmt.Fprintf(stdout, "scheme      %s  (%s)\n", res.Scheme, label)
	fmt.Fprintf(stdout, "flows done  %d   drops %d\n", res.FlowsDone, res.Drops)
	fmt.Fprintf(stdout, "normalized FCT (slowdown):\n")
	fmt.Fprintf(stdout, "  overall        avg %8.2f   p99 %8.2f   (n=%d)\n",
		res.Overall.AvgSlowdown, res.Overall.P99Slowdown, res.Overall.N)
	fmt.Fprintf(stdout, "  mice <=100KB   avg %8.2f   p99 %8.2f   (n=%d)\n",
		res.MiceBkt.AvgSlowdown, res.MiceBkt.P99Slowdown, res.MiceBkt.N)
	fmt.Fprintf(stdout, "  elephant>=10MB avg %8.2f   p99 %8.2f   (n=%d)\n",
		res.Elephant.AvgSlowdown, res.Elephant.P99Slowdown, res.Elephant.N)
	fmt.Fprintf(stdout, "  incast flows   avg %8.2f   p99 %8.2f   (n=%d)\n",
		res.Incast.AvgSlowdown, res.Incast.P99Slowdown, res.Incast.N)
	fmt.Fprintf(stdout, "latency     avg %.1fus   p99 %.1fus\n", res.LatencyAvgUs, res.LatencyP99Us)
	fmt.Fprintf(stdout, "queue       avg %.1fKB   var %.1fKB\n", res.QueueAvgKB, res.QueueVarKB)
	if rb := res.Overhead[pet.OverheadReplayBytes]; rb > 0 {
		fmt.Fprintf(stdout, "replay      %d bytes exchanged, %d bytes resident\n",
			rb, res.Overhead[pet.OverheadReplayMemory])
	}
	fmt.Fprintf(stdout, "wall clock  %v\n", wall.Round(time.Millisecond))
	return 0
}
