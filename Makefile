# Developer entry points. `make check` is the full gate (build + vet +
# race-enabled tests) referenced from README.md; `make race-sim` is its
# fast slice for the simulator's concurrent paths (CI: build-test).

GO ?= go

.PHONY: check build loc digest vet test test-faultinject bench-sass bench-replay bench-sim pool-width race-sim smoke sensitivity-smoke race chaos cluster-test soak serve bench-check fmt-check test-arch arch-report

check: build vet race

build:
	$(GO) build ./...

# Non-test Go lines outside bench/: the one number every simplicity PR
# quotes, before and after, in its CHANGES.md entry (CI prints it next
# to the build step), then the same count for internal/sim, the largest
# package, internal/workloads, the model kernels, and internal/service,
# the daemon's request layer.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@for p in internal/sim internal/workloads internal/service; do \
		printf '%s %s\n' "$$p" "$$(find $$p -name '*.go' -not -name '*_test.go' | xargs cat | wc -l)"; \
	done

# The model digest of the tree: the constant every stored report's key
# starts from (service.modelDigest). After a change that means to move a
# golden or a pinned build: regenerate with -update, `make digest`, paste
# the value into internal/service/cache.go, re-record TestCacheKeyVectors.
digest:
	@$(GO) test ./internal/service -run 'TestModelDigestCoversGoldens$$' -count=1 -v | sed -n 's/.*model digest: //p'

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The fault-injection build of the packages whose tests arm faults over
# HTTP and kill the store mid-write, and of the advisor's chaos tests (a
# sweep cell's and a verify variant's fault and budget rules), without
# the race detector (~10 s; CI: build-test, after Test). `make chaos` is
# the same tag under -race.
test-faultinject:
	$(GO) test -count=1 -tags faultinject ./internal/service/ ./internal/store/ ./internal/cluster/
	$(GO) test -count=1 -tags faultinject -run 'Chaos' ./internal/advisor/

# The SASS printer and parser benchmarks on two workloads, next to the
# reference parser they replaced (internal/sass/oracle_test.go); CI's
# build-test job runs them at BENCHTIME=1x so they compile and run.
BENCHTIME ?= 1s
bench-sass:
	$(GO) test ./internal/sass -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME)

# A sweep's replays alone: every workload on sm_70 and sm_80 at the
# benchmark's scale, recorded once, then every cell's SMs timed per
# iteration as the sweep times them, one Recording.Finish each (a replay
# unless the SM is proved inert); rec_B is the recordings' bytes. Add
# -cpuprofile to see where replay time goes: a Finish replay attributes
# no stalls, so past the recording set-up the profile is the timing
# model alone. CI's build-test job runs it at BENCHTIME=1x (~3 s).
bench-replay:
	$(GO) test ./internal/sim -run '^$$' -bench Replay -benchmem -benchtime $(BENCHTIME)

# The live simulator on the benchmark's sim_large launches (V100, Workers
# 1, 8 sampled SMs, bench scale): ns per round of three launches, and per
# launch the cycles, warp instructions and L1TEX sectors it simulated, a
# work count host noise cannot move. Add -cpuprofile to see where live
# simulation time goes; claims are made with bench/run.sh, not here. CI's
# build-test job runs it at BENCHTIME=1x (~1 s).
bench-sim:
	$(GO) test ./internal/sim -run '^$$' -bench SimLarge -benchmem -benchtime $(BENCHTIME)

# Width-independence of the re-execution passes (CI: build-test). Run
# fans a sweep's per-SM cell items and Verify's variants out over the
# job's GOMAXPROCS slots, starting the cells while the baseline records;
# -cpu 1,4 runs the goldens, sweep and verify tests and Run against the
# passes run by hand at width 1 (the serial reference) and at width 4, so
# a report that depends on the width or the schedule fails a byte
# comparison at one of them.
pool-width:
	$(GO) test -count=1 -cpu 1,4 -run 'Golden|Sweep|Verify|RunMatchesPasses' ./internal/advisor

# The concurrent first touch of demand-filled device pages, the parallel
# per-SM differentials, recordings made by two SMs at once and replayed
# SM by SM (TestReplayMatchesResimulation's and TestFinishMatchesReplay's
# launches but the 12 mixbench ones at scale 8, which would add ~4 min),
# and a Run whose sweep starts on a recording other SMs still write, under
# the race detector (~4 min on 2 CPUs; CI: build-test, so every change
# exercises it, not only the 30-minute race job). TestDifferentialRandomALU
# draws a fresh seed per run; eight more runs (~3 s) make a NaN or F2I
# result that depends on the host's code generation fail in most CI runs.
race-sim:
	$(GO) test -race -count=1 -run 'Fill|Parallel|Differential|Replay' -skip 'TestReplayMatchesResimulation|TestFinishMatchesReplay' ./internal/sim ./internal/workloads
	$(GO) test -race -count=8 -run 'TestDifferentialRandomALU$$' ./internal/sim
	$(GO) test -race -count=1 -run '(TestReplayMatchesResimulation|TestFinishMatchesReplay)/sm_[78]0/((histogram|jacobi|reduction|sgemm|spill|transpose)_|mixbench_.*@1$$)' ./internal/workloads
	$(GO) test -race -count=1 -run 'TestRunMatchesPasses' ./internal/advisor

# Runs the programs `go build ./...` only compiles: the quickstart
# example (it exits non-zero when a step fails), `gpuscout sim`,
# its disassembly fed back through `gpuscout -sass` (the blank line ends
# the SASS, launch statistics follow), the purity check — one swept,
# sliced request run twice must write the same bytes — and one
# experiment, `gpuscout experiments` (~6 s).
smoke:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	echo "smoke: examples/quickstart"; $(GO) run ./examples/quickstart > /dev/null; \
	echo "smoke: gpuscout sim -disas | gpuscout -sass"; \
	$(GO) run ./cmd/gpuscout sim -workload transpose_naive -scale 32 -disas | sed -n '1,/^$$/p' > "$$tmp/k.sass"; \
	$(GO) run ./cmd/gpuscout -sass "$$tmp/k.sass" -json "$$tmp/k.json" | grep -q 'analysis: readonly_cache'; \
	test -s "$$tmp/k.json"; \
	echo "smoke: the same request twice, cmp the reports"; \
	for n in 1 2; do \
		$(GO) run ./cmd/gpuscout -workload transpose_naive -scale 32 -sample-sms 1 \
			-sensitivity -slice -json "$$tmp/run$$n.json" > /dev/null; \
	done; \
	cmp "$$tmp/run1.json" "$$tmp/run2.json"; \
	echo "smoke: gpuscout experiments -run fig2 -fast"; \
	$(GO) run ./cmd/gpuscout experiments -run fig2 -fast | grep -q 'Register spilling'

# End-to-end causal-layer smoke (CI job of the same name): one workload
# per family through the CLI with the sensitivity sweep and stall slicing
# on, both architectures. Every report must carry the matrix, the summary
# line and a payoff; at least one must carry a producer chain. The size
# of the matrix is pinned where it is computed (cmd/gpuscout's tests),
# not here. Reports stay in sensitivity-reports/ (CI uploads them).
sensitivity-smoke:
	@set -e; mkdir -p sensitivity-reports; \
	for arch in sm70 sm80; do \
		for spec in "mixbench_sp_naive 8" "jacobi_naive 128" "sgemm_naive 64" \
				"transpose_shared 64" "spill_pressure 8" "histogram_global 4" \
				"reduction_atomic 0"; do \
			set -- $$spec; out="sensitivity-reports/$$1-$$arch.txt"; \
			echo "== $$1 scale $$2 ($$arch)"; \
			$(GO) run ./cmd/gpuscout -workload "$$1" -scale "$$2" \
				-arch "$$arch" -sample-sms 1 -sensitivity -slice > "$$out"; \
			grep -q "Sensitivity matrix (kernel cycles under perturbed hardware)" "$$out"; \
			grep -Eq "sensitivity: [0-9]+ perturbation\(s\) re-simulated" "$$out"; \
			grep -q "Payoff:  estimated speedup ceiling" "$$out"; \
		done; \
	done; \
	grep -l "Stall slice (producer chain" sensitivity-reports/*.txt

# The simulator-heavy packages are slow under the race detector on
# small machines; raise the per-package timeout well past the default.
race:
	$(GO) test -race -timeout 30m ./...

# Fault-injection chaos suite: every workload through every reachable
# fault site, under the race detector (see DESIGN.md §10).
chaos:
	$(GO) test -race -tags faultinject -run 'Chaos' -timeout 30m ./...

# In-process multi-replica cluster suite: 5 workers + a coordinator on
# loopback, Zipf-skewed load, mid-load failover, batch fan-out — run
# repeatedly under the race detector as a bounded soak (~30s), plus the
# worker-side batch/cache/backpressure tests it builds on, the pool's
# waiting enqueue, startup recovery through submit, the one settle
# step every finished job passes, the refusals that free a half-open
# probe, and the stage clock's counts per request shape.
cluster-test:
	$(GO) test -race -count=3 -timeout 15m ./internal/cluster/
	$(GO) test -race -run 'Batch|Healthz|Churn|DurationRing|ConcurrentSubmissions|Pool|Recovery|RecoveredStoredReports|EveryPathSettlesOnce|RefusalReleasesProbe|StageCounts' \
		-timeout 10m ./internal/service/

# Durable-state soak: SOAK_CYCLES crash/restart cycles over one
# data-dir, rotating a kill through every persistence crash point
# (journal append, tombstone, report rename, compaction rename) and
# asserting the restarted daemon serves byte-identical reports from
# disk (see DESIGN.md §14).
SOAK_CYCLES ?= 12
soak:
	SOAK_CYCLES=$(SOAK_CYCLES) $(GO) test -race -tags faultinject \
		-run 'TestSoakCrashRestartCycles' -count=1 -timeout 30m ./internal/service/

# Run the analysis service locally.
serve:
	$(GO) run ./cmd/gpuscoutd -addr :8090

# bench/ is its own module (replace gpuscout => ../), so `go build ./...`
# and `go test ./...` at the root never compile it; this keeps a change
# to the request path from breaking the repo benchmark unnoticed (~6 s).
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

# Per-architecture suite (CI: strategy.matrix.arch). sm70 runs the
# golden suite that proves the Volta backend is byte-identical to the
# pre-refactor compiler; sm80 runs the Ampere golden suite (cp.async
# lowering). Both run that backend's negative suite and lowering unit
# tests. Golden -run patterns are anchored: an unanchored
# 'TestGoldenReports' would also select the SM80 variant.
ARCH ?= sm70
test-arch:
	@case "$(ARCH)" in \
	sm70) \
		$(GO) test ./internal/advisor/ -run 'TestGoldenReports$$' -timeout 15m && \
		$(GO) test ./internal/scout/ -run 'TestDetectors(SilentOnOptimizedVariants|FireOnBaselines)/sm_70' && \
		$(GO) test ./internal/codegen/ -run 'TestSM70LoweringIsIdentity' ;; \
	sm80) \
		$(GO) test ./internal/advisor/ -run 'TestGoldenReportsSM80$$' -timeout 15m && \
		$(GO) test ./internal/scout/ -run 'TestDetectors(SilentOnOptimizedVariants|FireOnBaselines)/sm_80' && \
		$(GO) test ./internal/codegen/ -run 'TestSM80FusesAsyncCopy|TestFusionSkipsIneligibleLoads|TestAsyncCopyExecutes' ;; \
	*) echo "unknown ARCH=$(ARCH) (want sm70 or sm80)"; exit 2 ;; \
	esac

# Render the verified cross-arch comparison for one workload (uploaded
# as a CI artifact by the arch-matrix job; also a local smoke test of
# the -arch-compare path).
WORKLOAD ?= sgemm_shared
arch-report:
	$(GO) run ./cmd/gpuscout -workload $(WORKLOAD) -scale 64 \
		-arch sm70 -arch-compare sm80 -verify
