GO ?= go

# COVER_FLOOR is the total-statement-coverage floor `make cover` (and the CI
# coverage job) enforces. Measured 70.9% with the elastic-serving layer; the
# floor leaves a few points of headroom so refactors don't flap, but catches
# real erosion.
COVER_FLOOR ?= 68.0

.PHONY: check lint vet build test race cover reach bench bench-serve bench-autoscale bench-allocs bench-svm

# check runs everything CI runs (minus the version matrix).
check: lint build test race cover

# lint fails on unformatted files, vet findings and (when the tool is
# installed, as in CI) staticcheck findings.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipped"; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race covers the packages with real concurrency: the closure engine's
# parallel foreach worker pool, the simulation kernel's process switching,
# the pooled messaging layers built on it, the parallel experiment harness,
# the per-sim trace recorders it writes, the device runtime with its
# graph machinery (concurrent DAG submissions share plans and workspaces),
# and the serving layer whose partitioned runs drive drain/abort/migrate
# paths across parallel event loops.
race:
	$(GO) test -race ./internal/mcl/... ./internal/simnet/... ./internal/network/... ./internal/satin/... ./internal/bench/... ./internal/trace/... ./internal/core/... ./internal/ocl/... ./internal/svm/... ./internal/serve/...

# cover writes cover.out and fails if total statement coverage drops below
# COVER_FLOOR.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	ok=$$(awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN{print (t+0 >= f+0) ? 1 : 0}'); \
	if [ "$$ok" != "1" ]; then \
		echo "coverage $$total% is below the floor of $(COVER_FLOOR)%"; exit 1; fi; \
	echo "coverage $$total% (floor $(COVER_FLOOR)%)"

# reach is the reachability audit: which code does no committed command run?
# It builds every cmd/ and examples/ binary and the benchmark with statement
# coverage over the whole module into .reach/bin and runs this command list
# with GOCOVERDIR set:
#   - CI's commands: the four apps at -partitions 1 and 4, k-means over SVM
#     with both protocols, nbody with a tuning cache, examples/graph plain
#     and with -metrics, plain/chaos/autoscale/replay serving, every example
#     and the tune experiment;
#   - cashmere-run's other outputs on k-means: a -trace file (4 k20 nodes),
#     the -gantt chart (2 nodes) and a heterogeneous -cluster spec with
#     -metrics;
#   - the serve sweeps (-sweep, -sweep-autoscale);
#   - mclc -list-hardware, -feedback -cost, -emit and -tune on the matmul
#     kernels of internal/apps;
#   - cashmere-bench -experiment all, -metrics, -trace, -experiment svm with
#     -svm-json and -experiment tune with -tune-json;
#   - the five benchmark workloads at seed 1, one untraced pass each.
# Each command's stdout lands in .reach/out/, next to the files the commands
# write (date lines dropped); of the benchmark only its trajectory_digest
# lines, as the rest are host times. So the out/ directories of two trees
# diff clean when a change keeps every output. It then prints every function
# no command ran (0.0%) and the total of unreached statements. The
# benchmark's own package is dropped from the profile: go tool cover cannot
# resolve it from this module.
REACH := .reach
reach:
	@set -e; rm -rf $(REACH); mkdir -p $(REACH)/bin $(REACH)/cov $(REACH)/files $(REACH)/out; \
	$(GO) build -cover -coverpkg=cashmere/... -o $(REACH)/bin/ ./cmd/... ./examples/...; \
	$(GO) -C benchmark build -cover -coverpkg=cashmere/... -o $(CURDIR)/$(REACH)/bin/cashmere-benchmark .; \
	export GOCOVERDIR=$(CURDIR)/$(REACH)/cov; b=$(REACH)/bin; f=$(REACH)/files; o=$(REACH)/out; \
	for app in kmeans raytracer nbody matmul; do for p in 1 4; do \
		$$b/cashmere-run -app $$app -nodes 4 -metrics -partitions $$p > $$o/run-$$app-p$$p.txt; done; done; \
	$$b/cashmere-run -app kmeans -nodes 4 -device k20 -trace $$f/run-trace.json > $$o/run-trace.txt; \
	$$b/cashmere-run -app kmeans -nodes 2 -gantt > $$o/run-gantt.txt; \
	$$b/cashmere-run -app kmeans -cluster "2xgtx480,1xk20+xeon_phi" -metrics > $$o/run-cluster.txt; \
	for proto in wi ro; do for p in 1 4; do \
		$$b/cashmere-run -app kmeans -nodes 4 -transport svm -svm-protocol $$proto -metrics -partitions $$p > $$o/svm-$$proto-p$$p.txt; done; done; \
	for p in 1 4; do \
		$$b/cashmere-run -app nbody -nodes 4 -metrics -tune-cache $$f/tc$$p.json -partitions $$p > $$o/tune-p$$p.txt; \
		$$b/cashmere-serve -nodes 4 -duration 500ms -metrics -partitions $$p > $$o/serve-p$$p.txt; \
		for mode in -chaos -autoscale "-replay synth"; do \
			$$b/cashmere-serve -nodes 4 -duration 500ms $$mode -metrics -partitions $$p > "$$o/serve$$(echo $$mode | tr -d ' ')-p$$p.txt"; done; \
	done; \
	$$b/graph > $$o/graph.txt; $$b/graph -metrics > $$o/graph-metrics.txt; $$b/graph -metrics -partitions 4 > $$o/graph-metrics-p4.txt; \
	for e in faulttolerance heterogeneous pipeline quickstart serving stepwise; do $$b/$$e > $$o/example-$$e.txt; done; \
	$$b/cashmere-serve -sweep -out $$f/serve-sweep.json > $$o/serve-sweep.txt; \
	$$b/cashmere-serve -sweep-autoscale -duration 450ms > $$o/serve-sweep-autoscale.txt; \
	for v in Perfect GPU; do awk "/^const Matmul$$v = \`/{k=1;next} k&&/^\`/{exit} k" internal/apps/matmul.go > $$f/matmul-$$v.mcpl; done; \
	$$b/mclc -list-hardware > $$o/mclc-hardware.txt; \
	$$b/mclc -target gpu -params n=2048,m=2048,p=2048 -feedback -cost $$f/matmul-Perfect.mcpl > $$o/mclc-feedback.txt; \
	$$b/mclc -emit -feedback=false -params n=1024,m=1024,p=1024 -target gtx480 $$f/matmul-GPU.mcpl > $$o/mclc-emit.txt; \
	$$b/mclc -tune -target gtx480 -params n=1024,m=1024,p=1024 -tune-cache $$f/mclc-tune.json $$f/matmul-Perfect.mcpl $$f/matmul-GPU.mcpl > $$o/mclc-tune.txt; \
	$$b/cashmere-bench -experiment all > $$o/bench-all.txt; \
	$$b/cashmere-bench -metrics > $$o/bench-metrics.txt; \
	$$b/cashmere-bench -trace $$f/bench-trace.json > $$o/bench-trace.txt; \
	$$b/cashmere-bench -experiment svm -svm-json $$f/svm.json > $$o/bench-svm.txt; \
	$$b/cashmere-bench -experiment tune -tune-json $$f/tune.json > $$o/bench-tune.txt; \
	$$b/cashmere-benchmark -workload all -seed 1 -out $(REACH)/bench > $(REACH)/benchmark.txt; \
	grep trajectory_digest $(REACH)/benchmark.txt > $$o/benchmark-digests.txt; \
	for j in $$f/*.json; do grep -v '"date":' $$j > $$o/$$(basename $$j); done; \
	unset GOCOVERDIR; \
	$(GO) tool covdata textfmt -i=$(REACH)/cov -o $(REACH)/all.out; \
	grep -v '^cashmere/benchmark/' $(REACH)/all.out > $(REACH)/reach.out; \
	$(GO) tool cover -func=$(REACH)/reach.out | awk '$$NF == "0.0%"'; \
	awk 'NR > 1 { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
		END { for (k in n) { t += n[k]; if (!(k in hit)) u += n[k] } \
		printf "unreached: %d of %d statements\n", u, t }' $(REACH)/reach.out

# bench prints the engine-comparison and event-queue numbers that
# BENCH_kernels.json records; it does not write the file. Copy the rows in
# by hand, with the host header (cpu, nproc, GOMAXPROCS, go version).
bench:
	$(GO) test -run xxx -bench 'BenchmarkKernelExec|BenchmarkEventHeap' -benchtime 2s . ./internal/simnet/

# bench-serve regenerates BENCH_serve.json: the latency-vs-offered-load
# sweep of the online serving layer (standard 3-tenant workload on 4 GTX480
# nodes). Output is byte-identical at any parallelism.
bench-serve:
	$(GO) run ./cmd/cashmere-serve -sweep -out BENCH_serve.json

# bench-autoscale prints the short elasticity sweep (static fleet vs
# autoscaled under a 5x diurnal swing) without touching BENCH_serve.json;
# the CI bench smoke runs it to catch elasticity regressions quickly.
bench-autoscale:
	$(GO) run ./cmd/cashmere-serve -sweep-autoscale -duration 450ms

# bench-allocs enforces the pinned zero-allocation contracts: the simnet
# event loop (hold; pingpong between coroutines receiving through
# Chan.Await inside StepUntil; timeout, a reply awaited the same way with a
# deadline and answered before it by a coroutine responder, and step, by a
# step-process responder; and stepuntil, a coroutine stepping through
# expired deadlines inside StepUntil; the unanchored -bench pattern runs
# every BenchmarkSimnetEventLoop case), the simnet event queue
# (BenchmarkEventHeap's alternate and pairs cases at depths 16, 64 and 256;
# its containerheap oracle allocates by design and is not pinned),
# the pooled network message path (bulk, control, bulk from two senders
# whose couriers queue on one ingress link — each sent by a coroutine in
# Send, which runs a pooled send machine inside StepUntil — and bulk sent by
# a step process through BeginSend/FinishSend), disabled tracing, the
# device-runtime enqueue path (BenchmarkLaunchPath), the dataflow-graph
# submit path (BenchmarkGraphSubmitPath), the serving admission fast
# path (BenchmarkServeAdmitPath), one remote serving batch round trip run
# as steps — slot, serve_batch, pooled batch server, a stepped launch or
# graph run, serve_done — (BenchmarkServeBatchPath/launch and /graph), the
# SVM steady-state re-fault path (BenchmarkSVMRefault) and the memoized
# kernel-cost lookup, for a repeated launch and for raytracer leaves that
# differ in a parameter the cost never reads (BenchmarkKernelCost/memoized
# and /raytrace-memoized), must all report 0 allocs/op. CI fails if any of
# them regresses above zero.
bench-allocs:
	@$(GO) test -run xxx -benchmem -benchtime 2000x \
		-bench 'BenchmarkSimnetEventLoop|BenchmarkEventHeap|BenchmarkNetworkMessageRate|BenchmarkTraceOverhead|BenchmarkLaunchPath|BenchmarkGraphSubmitPath|BenchmarkServeAdmitPath|BenchmarkServeBatchPath|BenchmarkSVMRefault|BenchmarkKernelCost' \
		./internal/simnet/ ./internal/network/ ./internal/trace/ ./internal/ocl/ ./internal/core/ ./internal/svm/ ./internal/serve/ | tee bench-allocs.out
	@bad=$$(awk '/allocs\/op/ { name=$$1; sub(/-[0-9]+$$/, "", name); \
		if (name ~ /^(BenchmarkSimnetEventLoop\/hold|BenchmarkSimnetEventLoop\/pingpong|BenchmarkSimnetEventLoop\/timeout|BenchmarkSimnetEventLoop\/step|BenchmarkSimnetEventLoop\/stepuntil|BenchmarkEventHeap\/(alternate|pairs)\/depth=(16|64|256)|BenchmarkNetworkMessageRate\/bulk|BenchmarkNetworkMessageRate\/ctl|BenchmarkNetworkMessageRate\/contended|BenchmarkNetworkMessageRate\/stepped|BenchmarkTraceOverhead\/off|BenchmarkTraceOverhead\/off\/span-only|BenchmarkTraceOverheadDevice\/off|BenchmarkLaunchPath|BenchmarkGraphSubmitPath|BenchmarkServeAdmitPath|BenchmarkServeBatchPath\/(launch|graph)|BenchmarkSVMRefault|BenchmarkKernelCost\/memoized|BenchmarkKernelCost\/raytrace-memoized)$$/ \
		&& $$(NF-1)+0 > 0) print name, $$(NF-1), "allocs/op" }' bench-allocs.out); \
	if [ -n "$$bad" ]; then echo "zero-alloc benchmarks regressed:"; echo "$$bad"; exit 1; fi; \
	echo "all pinned benchmarks at 0 allocs/op"

# bench-svm regenerates the transfer-model crossover recorded in
# BENCH_svm.json: explicit copies vs demand-paged shared virtual memory
# (both protocols) from sparse iterative reuse to bulk streaming.
bench-svm:
	$(GO) run ./cmd/cashmere-bench -experiment svm -svm-json BENCH_svm.json
