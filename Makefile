GO ?= go

# COVER_FLOOR is the total-statement-coverage floor `make cover` (and the CI
# coverage job) enforces. Measured 70.9% with the elastic-serving layer; the
# floor leaves a few points of headroom so refactors don't flap, but catches
# real erosion.
COVER_FLOOR ?= 68.0

.PHONY: check lint vet build test race cover bench bench-serve bench-autoscale bench-allocs bench-svm

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
# event loop (hold, pingpong, a RecvTimeout answered before it expires by a
# coroutine or by a step-process responder, and a coroutine stepping through
# expired timeouts inside StepUntil; the unanchored -bench pattern runs
# every BenchmarkSimnetEventLoop case), the simnet event queue
# (BenchmarkEventHeap's alternate and pairs cases at depths 16, 64 and 256;
# its containerheap oracle allocates by design and is not pinned),
# the pooled network message path, disabled tracing, the
# device-runtime enqueue path (BenchmarkLaunchPath), the dataflow-graph
# submit path (BenchmarkGraphSubmitPath), the serving admission fast
# path (BenchmarkServeAdmitPath), the SVM steady-state re-fault path
# (BenchmarkSVMRefault) and the memoized kernel-cost lookup, for a repeated
# launch and for raytracer leaves that differ in a parameter the cost never
# reads (BenchmarkKernelCost/memoized and /raytrace-memoized), must all
# report 0 allocs/op. CI fails if any of them regresses above zero.
bench-allocs:
	@$(GO) test -run xxx -benchmem -benchtime 2000x \
		-bench 'BenchmarkSimnetEventLoop|BenchmarkEventHeap|BenchmarkNetworkMessageRate|BenchmarkTraceOverhead|BenchmarkLaunchPath|BenchmarkGraphSubmitPath|BenchmarkServeAdmitPath|BenchmarkSVMRefault|BenchmarkKernelCost' \
		./internal/simnet/ ./internal/network/ ./internal/trace/ ./internal/ocl/ ./internal/core/ ./internal/svm/ ./internal/serve/ | tee bench-allocs.out
	@bad=$$(awk '/allocs\/op/ { name=$$1; sub(/-[0-9]+$$/, "", name); \
		if (name ~ /^(BenchmarkSimnetEventLoop\/hold|BenchmarkSimnetEventLoop\/pingpong|BenchmarkSimnetEventLoop\/timeout|BenchmarkSimnetEventLoop\/step|BenchmarkSimnetEventLoop\/stepuntil|BenchmarkEventHeap\/(alternate|pairs)\/depth=(16|64|256)|BenchmarkNetworkMessageRate\/bulk|BenchmarkNetworkMessageRate\/ctl|BenchmarkTraceOverhead\/off|BenchmarkTraceOverhead\/off\/span-only|BenchmarkTraceOverheadDevice\/off|BenchmarkLaunchPath|BenchmarkGraphSubmitPath|BenchmarkServeAdmitPath|BenchmarkSVMRefault|BenchmarkKernelCost\/memoized|BenchmarkKernelCost\/raytrace-memoized)$$/ \
		&& $$(NF-1)+0 > 0) print name, $$(NF-1), "allocs/op" }' bench-allocs.out); \
	if [ -n "$$bad" ]; then echo "zero-alloc benchmarks regressed:"; echo "$$bad"; exit 1; fi; \
	echo "all pinned benchmarks at 0 allocs/op"

# bench-svm regenerates the transfer-model crossover recorded in
# BENCH_svm.json: explicit copies vs demand-paged shared virtual memory
# (both protocols) from sparse iterative reuse to bulk streaming.
bench-svm:
	$(GO) run ./cmd/cashmere-bench -experiment svm -svm-json BENCH_svm.json
