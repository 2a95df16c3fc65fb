package bench

import (
	"flag"
	"time"
)

// ScenarioFromFlags is the command-line front door to the scenario DSL. The
// base document is the file at path or, when path is empty, base. Each
// scenario flag fs defines then writes its document field — with a file
// only the flags set explicitly, without one every flag, defaults included
// — and ToScenario resolves the result once, so a flag value is checked,
// defaulted and given its per-workload betas exactly as the JSON field
// would be. Errors are *SpecError naming the document path.
//
// The flags are -seed (int64); -scheme, -transport, -workload, -topo
// (string); -load, -incast (float64); -fanin, -shards, -spines, -leaves,
// -hosts (int); -train (bool); -warmup, -duration (time.Duration). -topo
// replaces the topo block with that preset; -spines, -leaves and -hosts
// then override fields in it when positive.
func ScenarioFromFlags(fs *flag.FlagSet, path string, base ScenarioSpec) (*ScenarioSpec, Scenario, error) {
	spec := &base
	if path != "" {
		var err error
		if spec, err = LoadScenarioFile(path); err != nil {
			return nil, Scenario{}, err
		}
	}
	if err := spec.applyFlags(fs, path == ""); err != nil {
		return spec, Scenario{}, err
	}
	s, err := spec.ToScenario()
	return spec, s, err
}

// applyFlags writes the scenario flags of fs over the document: every one
// fs defines when all is set, otherwise only those set explicitly.
func (sp *ScenarioSpec) applyFlags(fs *flag.FlagSet, all bool) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	get := func(name string) (any, bool) {
		f := fs.Lookup(name)
		if f == nil || !(all || set[name]) {
			return nil, false
		}
		return f.Value.(flag.Getter).Get(), true
	}

	if v, ok := get("seed"); ok {
		sp.Seed = v.(int64)
	}
	if v, ok := get("scheme"); ok {
		sp.Scheme = v.(string)
	}
	if v, ok := get("transport"); ok {
		sp.Transport = v.(string)
	}
	if v, ok := get("workload"); ok {
		sp.Workload = &WorkloadSpec{Name: v.(string)}
	}
	if v, ok := get("load"); ok {
		load := v.(float64)
		sp.Load = &load
	}
	if v, ok := get("incast"); ok {
		sp.IncastFraction = v.(float64)
	}
	if v, ok := get("fanin"); ok {
		sp.IncastFanIn = v.(int)
	}
	if v, ok := get("train"); ok {
		sp.Train = v.(bool)
	}
	if v, ok := get("shards"); ok {
		sp.Shards = v.(int)
	}
	for _, w := range []struct {
		name string
		dst  **SimDuration
	}{{"warmup", &sp.Warmup}, {"duration", &sp.Duration}} {
		if v, ok := get(w.name); ok {
			var d SimDuration
			if err := d.Set(v.(time.Duration).String()); err != nil {
				return specWrap(w.name, err)
			}
			*w.dst = &d
		}
	}
	if v, ok := get("topo"); ok {
		sp.Topo = &TopoSpec{Preset: v.(string)}
	}
	for name, field := range map[string]func(*TopoSpec) *int{
		"spines": func(t *TopoSpec) *int { return &t.Spines },
		"leaves": func(t *TopoSpec) *int { return &t.Leaves },
		"hosts":  func(t *TopoSpec) *int { return &t.HostsPerLeaf },
	} {
		if v, ok := get(name); ok && v.(int) > 0 {
			if sp.Topo == nil {
				sp.Topo = &TopoSpec{}
			}
			*field(sp.Topo) = v.(int)
		}
	}
	return nil
}
