# Verification tiers. `make ci` is the full gate; see README.md.
GO ?= go

.PHONY: build build-examples test test-cli race vet lint bench bench-smoke bench-json bench-serve bench-shard serve-smoke results test-chaos test-pool test-store test-serve-chaos test-shard test-scenario fuzz-smoke ci

build:
	$(GO) build ./...

# Examples are main packages; building them explicitly keeps the
# README-facing code honest.
build-examples:
	$(GO) build ./examples/...

test:
	$(GO) test ./...

# CLI tier: the petsim golden tests (-list-schemes/-list-transports output,
# error exit codes) — the registry surface users script against.
test-cli:
	$(GO) test -run 'Golden|ExitsNonZero|ShortRun' ./cmd/petsim/

# Race tier: the rollout fleet (internal/fleet) runs worker goroutines that
# each own a full simulation; this catches any shared state leaking between
# them. Slower than `make test` — the detector instruments every access.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Lint tier: staticcheck when available (CI installs it; locally it is
# optional, so a missing binary skips instead of failing the gate).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi

bench:
	$(GO) test -bench=. -benchmem ./...

# Smoke tier: run every benchmark exactly once (no timing loop) so CI
# catches benchmarks that no longer compile or crash, in seconds.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Chaos tier: the fleet's fault-injection and recovery suite — worker
# panics, hangs past the episode deadline, quorum merges, checkpoint
# corruption/fallback, cancellation — under the race detector, twice, so
# every failure path is exercised both cold and with warm state.
test-chaos:
	$(GO) test -race -count=2 -run 'Fault|Quorum|Chaos|Cancel|Checkpoint|Corrupt' ./internal/fleet/ ./internal/bench/

# Pool tier: rebuild the packet/event pooling layers with the poolcheck
# build tag, turning ownership violations (double release, use after
# release) into panics, and run the pooled packages plus both transports.
test-pool:
	$(GO) test -tags poolcheck ./internal/sim/ ./internal/netsim/ ./internal/dcqcn/ ./internal/dctcp/

# Hot-path benchmark snapshot: re-measure the three tracked benchmarks and
# merge them into BENCH_hotpath.json under the "after" label (the "before"
# section is the committed pre-refactor baseline).
bench-json:
	$(GO) test -run='^$$' -bench='BenchmarkSimulatorPacketForwarding|BenchmarkPPOInference|BenchmarkPPOUpdate' -benchmem . \
		| $(GO) run ./cmd/benchjson -label after -out BENCH_hotpath.json

# Serving SLO snapshot: the petd batched-inference benchmark (≥1000
# concurrent HTTP pollers against the replica pool; reports req/s and
# client-observed p99_us alongside ns/op) merged into BENCH_serve.json.
bench-serve:
	$(GO) test -run='^$$' -bench=BenchmarkInferServe -benchmem ./internal/serve/ \
		| $(GO) run ./cmd/benchjson -label serve -out BENCH_serve.json

# Store tier: the versioned model store, its fleet-checkpoint client and the
# serving hot-swap path under the race detector, twice (-count=2 exercises
# store GC and channel moves against a directory that already holds prior
# state): content-addressed versions, channel pointers, crash-tail log
# recovery, checkpoint rounds as store versions (history GC, pinned
# channels), the shadow-eval promotion gate, and the 100-poller never-torn
# swap parity suite.
test-store:
	$(GO) test -race -count=2 -run 'Store|Swap|Promote|Gate|Channel|GC|Version|Model' ./internal/modelstore/ ./internal/fleet/ ./internal/serve/

# Serve smoke tier: boot petd on an ephemeral port and drive the whole
# control plane over real HTTP — experiment lifecycle (launch, inspect,
# cancel), SSE streaming, batched inference from a freshly trained bundle,
# graceful shutdown.
serve-smoke:
	$(GO) test -run 'TestDaemon' ./cmd/petd/

# Serve chaos tier: the crash-only daemon suite — journal replay and
# torn-tail recovery, SIGKILL-and-resume (a real petd subprocess), injected
# replica panics with byte-identical parity, overload shedding, the circuit
# breaker, the hung-job watchdog and corrupt store reads — under the race
# detector, twice, so every recovery path runs both cold and with warm state.
test-serve-chaos:
	$(GO) test -race -count=2 -run 'ServeChaos|Journal|Watchdog|Admission|Breaker|Readyz|CancelIdempotent|KillRestart' ./internal/serve/ ./internal/jsonlog/ ./cmd/petd/

# Shard tier: the sharded-engine determinism and partition suites — lane
# comparator compatibility, cross-lane mailbox handoffs, barrier starvation,
# full-stack byte-identity of shards=1 vs N (traces, Results, model
# bundles), topology presets — under the race detector, twice, with the
# worker-goroutine path forced on even on single-CPU hosts.
test-shard:
	$(GO) test -race -count=2 -run 'Shard|Partition|Preset|Comparator' ./internal/sim/ ./internal/netsim/ ./internal/topo/ ./internal/bench/

# Scenario tier: the declarative scenario DSL end to end — strict decoding
# with JSON-path errors, spec round-trip properties (plus the decoder fuzz
# target's committed corpus), spec-vs-hand-built byte-identity, the generic
# name registry and the scheme/event/workload registries on it, the Fig. 6/7
# golden driven by registered event kinds, unreachable-drop accounting, the
# canned scenario library goldens, the -scenario flag in all three CLIs
# plus petd's embedded-scenario jobs, the one-front-door oracles (petsim's
# flag golden, petd's flat-spec reference) and out-of-range rejection at
# every surface (NewEnv, CLI flags, job fields, gate overrides, the job-spec
# fuzz corpus) — under the race detector, twice.
test-scenario:
	$(GO) test -race -count=2 -run 'Spec|Scenario|Canned|EventKind|LinkEvent|WithDefaults|ZeroLoad|Registry|Fig67Golden|FuzzDecodeScenarioSpec|DropsIncludeUnreachable|Oracle|NewEnvRejects|OutOfRange|LaunchValidation|BadGateOverride|FuzzExperimentSpec' ./internal/bench/ ./internal/registry/ ./internal/serve/ ./internal/workload/ ./cmd/petsim/ ./cmd/pettrain/ ./cmd/petbench/

# Fuzz smoke tier: short coverage-guided passes over the scenario decoder
# (DecodeScenarioSpec, ToScenario, canonical re-encoding) and petd's job-spec
# path (strict body decoding, launch validation, scenario resolution, NewEnv
# assembly). A crasher lands in internal/bench/testdata/fuzz/ or
# internal/serve/testdata/fuzz/ and, once committed, replays in every
# `go test` run as a regression case.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeScenarioSpec$$' -fuzztime=10s ./internal/bench/
	$(GO) test -run '^$$' -fuzz '^FuzzExperimentSpec$$' -fuzztime=10s ./internal/serve/

# Sharded-forwarding throughput snapshot: paper-scale fabric (288 hosts) at
# shards=1/2/NumCPU, merged into BENCH_shard.json. Numbers from a single-CPU
# machine show the synchronization overhead, not a speedup — the JSON notes
# the host's core count via benchjson's recorded benchmark names.
bench-shard:
	$(GO) test -run='^$$' -bench=BenchmarkShardedForwarding -benchmem ./internal/netsim/ \
		| $(GO) run ./cmd/benchjson -label shard -out BENCH_shard.json

# Regenerate the committed experiment results (EXPERIMENTS.md points here;
# petbench_results.txt predates several schemes and the registry refactor,
# so rebuild it rather than trusting the stale snapshot).
results:
	$(GO) run ./cmd/petbench -quick -exp all > petbench_results.txt

ci: build build-examples vet lint test test-cli test-pool test-store serve-smoke race test-chaos test-serve-chaos test-shard test-scenario fuzz-smoke
