# Tier-1 verify is `make check`; `make ci` adds the race detector and a
# short fuzz smoke pass (see ci.sh).

GO ?= go

.PHONY: check ci race resilience procfault fuzz bench bench-dag bench-angleset bench-weighted bench-comm bench-record benchstat bench-smoke perfbench perfbench-test verify service loadtest loadtest-smoke

check:
	$(GO) build ./... && $(GO) test ./...

# The whole suite with runtime schedule auditing forced on: every
# schedule produced anywhere is re-checked by internal/verify
# (precedence, exclusivity, copies, metrics, recovery accounting).
# -count=1 defeats the test cache so the audited paths really run.
verify:
	SWEEPSCHED_VERIFY=1 $(GO) test -count=1 ./...

race:
	$(GO) test -race ./...

# The fault-injection / recovery / cancellation suite under the race
# detector, with a hard timeout so a deadlock fails instead of hanging.
resilience:
	$(GO) test -race -timeout 120s ./internal/faults ./internal/simulate ./internal/transport

# Multi-process fault injection under the race detector: spawn real
# worker OS processes over localhost TCP, kill -9 one mid-epoch (and in
# the wider suite sever sockets), and require the recovered flux to be
# bitwise-identical to the serial solver with a reproducible merged
# stats snapshot. A deadlocked barrier or unreaped worker fails on the
# timeout / orphan scan rather than hanging.
procfault:
	$(GO) test -race -count=1 -timeout 300s ./internal/procrun

# Every target in fuzz_targets.txt (the list ci.sh runs too;
# TestFuzzTargetsListed keeps it complete).
fuzz:
	GO=$(GO) FUZZTIME=10s ./fuzz.sh

ci:
	./ci.sh

# The sweepschedd daemon suite under the race detector plus a short
# in-process loadtest smoke (8 clients against the paper tetonly mesh,
# server-side sampled audits on; see ci.sh).
service:
	$(GO) test -race -count=1 ./internal/service ./internal/cliutil ./internal/obs
	$(GO) run ./cmd/sweeploadtest -clients 8 -requests 4 -scale 0.02 -k 8 -m 16 -verify-every 4 -out /dev/null

# Record the service load/soak numbers in BENCH_PR6.json: 8 concurrent
# clients, cold (unique meshes) vs warm (identical request) phases on a
# paper-scale tetonly mesh with sampled runtime audits enabled.
loadtest:
	$(GO) run ./cmd/sweeploadtest -clients 8 -requests 25 -mesh tetonly -scale 0.05 \
	    -k 24 -m 64 -verify-every 8 -out BENCH_PR6.json

# Same harness, small enough for CI.
loadtest-smoke:
	$(GO) run ./cmd/sweeploadtest -clients 8 -requests 5 -scale 0.02 -k 8 -m 16 \
	    -verify-every 4 -out /dev/null

# The workers-sweep benchmarks of the parallel per-direction pipeline plus
# the old-vs-new scheduling-kernel comparison (ref = container/heap + map
# calendar, workspace = typed 4-ary heap + calendar ring).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkBuildAll/' ./internal/dag
	$(GO) test -run '^$$' -bench 'BenchmarkSchedule/' .
	$(GO) test -run '^$$' -bench 'Benchmark(ScheduleKernel|CommKernel)/' -benchmem ./internal/sched

# The DAG-family construction benchmarks (PR 5): frozen pre-skeleton
# reference vs cold (fresh DAGs) vs warm (recycled skeleton + builder +
# destination arrays) on the largest paper mesh family, with allocation
# counts. Recorded numbers live in BENCH_PR5.json.
bench-dag:
	$(GO) test -run '^$$' -bench 'Benchmark(BuildInto|BuildAllFamily)/' -benchmem ./internal/dag

# The angleset-aggregation benchmarks (PR 8): the full warm schedule
# build per direction vs per octant angleset (the headline, recorded in
# BENCH_PR8.json), plus the kernel-stage comparison on expanded vs
# compact inputs with its 0 allocs/op contract.
bench-angleset:
	$(GO) test -run '^$$' -bench 'BenchmarkAngleset' -benchmem -benchtime 2s -count 5 ./internal/sched ./internal/heuristics

# The weighted-engine benchmarks (PR 9): the warm event-driven weighted
# kernel on the uniform machine vs heterogeneous speeds + hierarchical
# delays, with its 0 allocs/op contract. Recorded numbers live in
# BENCH_PR9.json.
bench-weighted:
	$(GO) test -run '^$$' -bench 'BenchmarkWeightedKernel' -benchmem -benchtime 2s -count 5 ./internal/sched

# The batched flux-communication benchmarks (PR 10): the in-process
# transport executor batched vs the per-message oracle (messages/op,
# batches/op, bytes/op on the k=24/m=32 box, random-delay and RDP
# schedules), then the multi-process runner at full scale (the
# SWEEPSCHED_BENCH_COMM_FULL gate lifts the small CI default). Recorded
# numbers live in BENCH_PR10.json.
bench-comm:
	$(GO) test -run '^$$' -bench 'BenchmarkSolveParallelComm' -benchmem -count 5 ./internal/transport
	SWEEPSCHED_BENCH_COMM_FULL=1 $(GO) test -run '^$$' -bench 'BenchmarkProcRunComm' -benchmem -timeout 3600s ./internal/procrun

# Reproduce the numbers recorded in BENCH_PR1.json (parallel
# per-direction pipeline), BENCH_PR3.json (scheduling kernels and pipeline), BENCH_PR5.json
# (DAG builder) and BENCH_PR10.json (in-process transport traffic). The
# other ledgers have their own targets: bench-angleset (PR 8),
# bench-weighted (PR 9), loadtest (PR 6) and bench-comm (PR 10 with the
# multi-process runner).
bench-record:
	$(GO) test -run '^$$' -bench 'BenchmarkBuildAll/' -count 5 ./internal/dag
	$(GO) test -run '^$$' -bench 'Benchmark(BuildInto|BuildAllFamily)/' -benchmem -count 5 ./internal/dag
	$(GO) test -run '^$$' -bench 'BenchmarkSchedule/' -count 5 .
	$(GO) test -run '^$$' -bench 'Benchmark(ScheduleKernel|CommKernel)/' -benchmem -count 5 ./internal/sched
	$(GO) test -run '^$$' -bench 'BenchmarkSolveParallelComm' -benchmem -count 5 ./internal/transport

# The repository benchmark (perfbench/README.md): builds perfbench from
# this checkout and runs one workload, printing one JSON line of
# metrics last. Pass flags with PERFBENCH_ARGS, e.g.
#   make perfbench PERFBENCH_ARGS='--workload solve --seed 1 --trace 1'
PERFBENCH_ARGS ?= --workload pipeline --seed 1 --seconds 55 --trace 0
perfbench:
	bash perfbench/run.sh $(PERFBENCH_ARGS)

# The benchmark's own tests (perfbench is a separate module, so
# `go test ./...` at the root does not reach it; ci.sh runs these too).
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# One iteration of every benchmark in the repo — a compile-and-run smoke
# pass (also part of ci.sh), not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Compare two bench-record outputs with benchstat, if it is installed
# (this repo does not install tools; see BENCH_PR3.json for recorded
# numbers). Usage: make benchstat OLD=old.txt NEW=new.txt
benchstat:
	@command -v benchstat >/dev/null 2>&1 || { echo "benchstat not installed; compare $(OLD) and $(NEW) by hand or see BENCH_PR3.json"; exit 1; }
	benchstat $(OLD) $(NEW)
