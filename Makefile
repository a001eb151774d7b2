GO ?= go

.PHONY: check build vet fma-audit test race chaos checkpoint-equiv trie-equiv obs-equiv registry-equiv fabric-equiv oracle fuzz-smoke bench bench-diff bench-sanity bench-e2e-module profile cover

# Tier-1 verification gate, and the only list of gates (scripts/check.sh
# runs it): build + vet + the fused multiply-add audit + race-enabled
# tests, a short fuzz smoke over
# every fuzz target, the coverage floor, a one-shot benchmark sanity pass
# and the end-to-end benchmark module's own vet and tests. The campaign
# runner executes experiments on a worker pool, so the race detector is
# part of the default gate, not an optional extra. The race step runs
# every equivalence self-test (chaos, checkpoint, trie, obs, registry,
# fabric); their named targets below are shortcuts, not extra gate steps.
check: build vet fma-audit race fuzz-smoke cover bench-sanity bench-e2e-module

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Cross-architecture determinism: cross-compile ./internal/... for the
# four architectures whose compilers fuse x*y + z into one FMA
# instruction (arm64, riscv64, ppc64le, s390x) and fail if any source
# file compiles to more fused instructions than its committed baseline
# (scripts/fma-baseline.txt). A fused multiply-add rounds once instead of
# twice, so it changes result bits that amd64 computes unfused.
fma-audit:
	scripts/fma-audit.sh

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The chaos self-test by name, under the race detector: 200 experiments
# with deterministically scheduled panics, hangs and NaN corruption must
# quarantine every persistent failure and keep the healthy rows
# byte-identical.
chaos:
	$(GO) test -race -run 'TestChaosCampaign' ./internal/runner

# The checkpoint-equivalence self-test by name, under the race detector:
# the same 200-experiment grid with prefix-checkpoint forking on and off
# — healthy, sharded and with chaos-injected failures — must emit
# byte-identical result CSVs and matching quarantine records.
checkpoint-equiv:
	$(GO) test -race -run 'TestCheckpointCampaignEquivalence' ./internal/runner

# The trie-equivalence self-test by name, under the race detector: the
# same grid with checkpoint-trie duration chaining on and off — healthy,
# sharded, under chaos injection, with early exit enabled, and with a
# mid-chain panic poisoning one trie subtree — must emit byte-identical
# result CSVs; and early termination on vs off must preserve every
# classification and the rendered per-cell report bit-for-bit.
trie-equiv:
	$(GO) test -race -run 'TestTrieCampaignEquivalence|TestTrieEarlyExitClassificationEquivalence|TestOrderGroupChainsTotalOrder' ./internal/runner

# The observability-equivalence self-test by name, under the race
# detector: the same grid with the full metrics stack (registry +
# millisecond heartbeat) and with metrics off — healthy and with
# chaos-injected failures — must emit byte-identical result CSVs and
# matching quarantine records. Observation must never perturb results.
obs-equiv:
	$(GO) test -race -run 'TestMetricsCampaignEquivalence' ./internal/runner

# The registry-equivalence self-test by name, under the race detector:
# campaigns resolved through the attack registry (by name) must emit
# result CSVs byte-identical to the legacy kind/factory paths — healthy
# and with chaos-injected failures — and matrix execution must stay
# deterministic across worker counts, shards, resume, fabric-style
# ranges and a failure-budget abort, with every cell's groups on one
# work queue and each scenario's engine held only while it has work.
registry-equiv:
	$(GO) test -race -run 'TestRegistryCampaignEquivalence|TestRegistryChaosEquivalence|TestRunMatrixDeterminism|TestRunMatrixOneQueue|TestRunMatrixEngineLifetime' ./internal/runner

# The fabric-equivalence chaos drills by name, under the race detector:
# a distributed campaign with a worker killed mid-lease (its ranges
# expire and are re-leased to survivors) and a fully healthy 3-worker
# run must both merge result CSVs and quarantine files byte-identical
# to a sequential run; late completions from the presumed-dead worker
# must be rejected by the lease generation counter, exactly once; and
# the multi-campaign drill — three campaigns with distinct grids
# submitted concurrently to one service, one worker crashing mid-lease
# — must leave every campaign's on-disk artifacts byte-identical to
# its own sequential run. The long-poll lease tests ride along: a parked
# lease request must be granted on a lease expiry or a submission, answer
# Done or Draining the moment the run ends, answer empty only at its
# bound, return promptly when its client goes away, and never let an
# idle worker busy-loop; Linger must hold the socket for a worker not
# yet told the run is over, and only while that worker is live.
fabric-equiv:
	$(GO) test -race -run 'TestFabricChaosEquivalence|TestFabricDistributedEquivalence|TestFabricMultiCampaignChaosEquivalence|TestServiceStaleCompletionExactlyOnce|TestRangeSplitEquivalence|TestLeaseLongPoll|TestWorkerIdleLongPollNoBusyLoop|TestServiceLingerAgesOutSilentWorker' ./internal/fabric ./internal/runner

# The metamorphic oracles by name: experiments whose attack cannot change
# anything (a zero delay, a window starting at the horizon) must equal the
# golden run bit for bit, and DoS, a delay beyond the horizon and packet
# loss with p = 1 must equal each other, fresh and forked. The race step
# already runs them; this is a shortcut, not an extra gate step.
oracle:
	$(GO) test -run 'TestOracle' ./internal/core

# Short coverage-guided fuzz smoke on every fuzz target (the config
# parser, the matrix-section decoder, the DES kernel scheduler,
# snapshot/restore and batch chains against plain scheduling, the radio
# medium's dispatch-ordered fan-out against per-event scheduling, its
# lazy receptions against the eager reference, the traffic simulator's
# reused lane order, the shard
# designator, the heartbeat snapshot decoder). 5s per target catches
# corpus regressions without slowing the gate meaningfully; -run '^$$'
# skips the unit tests the race step already ran.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzParse$$' -fuzztime 5s ./internal/config
	$(GO) test -run '^$$' -fuzz 'FuzzMatrixConfigDecode' -fuzztime 5s ./internal/config
	$(GO) test -run '^$$' -fuzz 'FuzzKernelSchedule' -fuzztime 5s ./internal/sim/des
	$(GO) test -run '^$$' -fuzz 'FuzzKernelSnapshot' -fuzztime 5s ./internal/sim/des
	$(GO) test -run '^$$' -fuzz 'FuzzBatchOrder' -fuzztime 5s ./internal/sim/des
	$(GO) test -run '^$$' -fuzz 'FuzzFanoutOrder' -fuzztime 5s ./internal/nic
	$(GO) test -run '^$$' -fuzz 'FuzzLazyReception' -fuzztime 5s ./internal/nic
	$(GO) test -run '^$$' -fuzz 'FuzzLaneOrder' -fuzztime 5s ./internal/traffic
	$(GO) test -run '^$$' -fuzz 'FuzzParseShard' -fuzztime 5s ./internal/runner
	$(GO) test -run '^$$' -fuzz 'FuzzTrieGroupKey' -fuzztime 5s ./internal/runner
	$(GO) test -run '^$$' -fuzz 'FuzzHeartbeatDecode' -fuzztime 5s ./internal/obs
	$(GO) test -run '^$$' -fuzz 'FuzzLeaseProtocolDecode' -fuzztime 5s ./internal/fabric
	$(GO) test -run '^$$' -fuzz 'FuzzCampaignSubmitDecode' -fuzztime 5s ./internal/fabric

# Per-package coverage report plus the internal/obs coverage floor: the
# observability layer is pure bookkeeping whose failures would corrupt
# metrics silently, so it stays >= 90% covered by construction.
cover:
	scripts/cover.sh

# Full perf measurement: repeated runs of the regression trio, a dated
# bench/BENCH_<date>.{txt,json} artifact, and a comparison against the
# committed bench/BENCH_baseline.* (benchstat when installed, the bundled
# scripts/benchjson.go comparator otherwise).
bench:
	scripts/bench.sh

# Bench regression gate: a fresh, shorter run of the regression trio that
# FAILS on >25% ns/op regression — or any allocs/op increase beyond
# measurement grain — against the committed bench/BENCH_baseline.json.
# WARN_ONLY=1 downgrades failures to warnings on noisy hosts. Unlike
# `bench`, it writes no dated artifact.
bench-diff:
	scripts/benchdiff.sh

# Smoke-run every benchmark exactly once so the suite cannot rot.
bench-sanity:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench/e2e is a Go module of its own, so the root ./... skips it; it
# compiles against the runner, config and fabric APIs, so vet and test it
# here.
bench-e2e-module:
	cd bench/e2e && $(GO) vet ./... && $(GO) test ./...

# The one profiling ledger: a traced end-to-end run of the paper-delay
# workload, whose pprof samples roll up into the 12 cpu_frac.* layers
# (des, traffic, phy, nic, platoon, core, trace, runner, fabric,
# runtime, harness, other) alongside the per-layer counters, printed as
# a metric table with the result as JSON on the last line.
profile:
	sh bench/e2e/run.sh --workload paper-delay --seed 1 --seconds 10 --trace 1
