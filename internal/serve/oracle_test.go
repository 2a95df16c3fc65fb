package serve

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pet/internal/bench"
	"pet/internal/sim"
	"pet/internal/topo"
	"pet/internal/workload"
)

// referenceScenario is an independent transcription of how a flat job spec
// has always mapped onto a scenario: a named preset (default tiny), a named
// workload (default websearch) with its paper betas, the scheme and
// transport names as given, and zero or empty values left for NewEnv's
// defaults.
func referenceScenario(sp ExperimentSpec) (bench.Scenario, error) {
	var s bench.Scenario
	name := sp.Topo
	if name == "" {
		name = "tiny"
	}
	cfg, err := topo.Preset(name)
	if err != nil {
		return s, err
	}
	s.Topo = cfg
	wl := sp.Workload
	if wl == "" {
		wl = "websearch"
	}
	if s.Workload, err = workload.ByName(wl); err != nil {
		return s, err
	}
	s.Beta1, s.Beta2 = bench.DefaultBetas(s.Workload)
	s.Scheme = bench.Scheme(sp.Scheme)
	s.Transport = bench.TransportKind(sp.Transport)
	s.Seed = sp.Seed
	s.Load = sp.Load
	s.IncastFraction = sp.IncastFraction
	s.IncastFanIn = sp.IncastFanIn
	s.Train = sp.Train == nil || *sp.Train
	parse := func(v string) (sim.Time, error) {
		if v == "" {
			return 0, nil
		}
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, err
		}
		return sim.Time(d.Nanoseconds()) * sim.Nanosecond, nil
	}
	if s.Warmup, err = parse(sp.Warmup); err != nil {
		return s, err
	}
	if s.Duration, err = parse(sp.Duration); err != nil {
		return s, err
	}
	return s, nil
}

// TestFlatSpecOracle pins the scenario every flat job spec assembles into:
// the daemon's translation, once defaulted by NewEnv, equals the reference
// transcription field for field. Only the Explicit* markers — bookkeeping
// for how a default was reached, not what it is — are ignored.
func TestFlatSpecOracle(t *testing.T) {
	off := false
	on := true
	specs := []ExperimentSpec{
		{},
		{Scheme: "SECN1"},
		{Scheme: "SECN2", Load: 0.3, Seed: 7},
		{Scheme: "SECN1", Topo: "small", Workload: "datamining"},
		{Workload: "datamining", Train: &off},
		{Scheme: "SECN1", Train: &on, Transport: "dctcp"},
		{Scheme: "SECN1", IncastFraction: 0.4, IncastFanIn: 5},
		{Scheme: "SECN1", Warmup: "0s", Duration: "0s"},
		{Scheme: "SECN1", Warmup: "3ms", Duration: "4ms"},
		{Kind: KindPretrain, Duration: "8ms", Workload: "datamining"},
		{Kind: KindPretrain, Load: 0.7, Topo: "small"},
	}
	for i, sp := range specs {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			n, err := sp.normalized()
			if err != nil {
				t.Fatalf("normalized: %v", err)
			}
			want, err := referenceScenario(n)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := n.scenario()
			if err != nil {
				t.Fatalf("scenario: %v", err)
			}
			wantEnv, err := bench.NewEnv(want)
			if err != nil {
				t.Fatalf("NewEnv(reference): %v", err)
			}
			gotEnv, err := bench.NewEnv(got)
			if err != nil {
				t.Fatalf("NewEnv(daemon): %v", err)
			}
			if w, g := withoutMarkers(wantEnv.Scenario), withoutMarkers(gotEnv.Scenario); !reflect.DeepEqual(w, g) {
				t.Fatalf("spec %+v: daemon scenario\n%+v\nwant\n%+v", sp, g, w)
			}
		})
	}
}

func withoutMarkers(s bench.Scenario) bench.Scenario {
	s.ExplicitLoad, s.ExplicitBetas, s.ExplicitWarmup = false, false, false
	return s
}
