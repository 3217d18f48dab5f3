GO ?= go

# COVER_FLOOR is the total-statement-coverage floor `make cover` (and the CI
# coverage job) enforces. Measured 70.9% with the elastic-serving layer; the
# floor leaves a few points of headroom so refactors don't flap, but catches
# real erosion.
COVER_FLOOR ?= 68.0

# REACH_CEILING is the most statements `make reach` (and CI's go1.24.0
# reach job) lets no committed command run: the audit fails above it, so deleted
# dead code stays deleted and new code comes with a command that runs it.
# Set to the total the audit reported when the ceiling was last lowered.
REACH_CEILING := 2327

.PHONY: check lint vet build test test32 benchmark-module race cover reach golden bench bench-serve bench-allocs bench-svm

# check runs everything CI runs (minus the version matrix).
check: lint build test test32 benchmark-module race cover reach bench-allocs

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

# test32 runs the event kernel and the Satin runtime on a 32-bit build:
# math/rand/v2 branches on the word size, and the victim streams
# (TestVictimStream) and event order must not.
test32:
	GOARCH=386 $(GO) test ./internal/simnet/ ./internal/satin/

# benchmark-module vets and tests the benchmark, its own module under
# benchmark/, which ./... does not reach.
benchmark-module:
	$(GO) -C benchmark vet . && $(GO) -C benchmark test .

# race covers the packages with real concurrency: the closure engine's
# parallel foreach worker pool, the simulation kernel's process switching,
# the pooled messaging layers built on it, the parallel experiment harness,
# the per-sim trace recorders it writes, the device runtime with its
# graph machinery (concurrent DAG submissions share plans and workspaces),
# and the serving layer whose partitioned runs drive drain/abort/migrate
# paths across parallel event loops. The kernel-set memo and compile cache,
# which clusters on several goroutines of the experiment harness share, get
# ten more concurrent runs, each racing a fresh NewKernelSet miss
# (TestKernelSetCompileConcurrent).
race:
	$(GO) test -race ./internal/mcl/... ./internal/simnet/... ./internal/network/... ./internal/satin/... ./internal/bench/... ./internal/trace/... ./internal/core/... ./internal/ocl/... ./internal/svm/... ./internal/serve/...
	$(GO) test -race -count=10 -run '^TestKernelSetCompileConcurrent$$' ./internal/mcl/codegen/

# cover writes cover.out and fails if total statement coverage drops below
# COVER_FLOOR.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	ok=$$(awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN{print (t+0 >= f+0) ? 1 : 0}'); \
	if [ "$$ok" != "1" ]; then \
		echo "coverage $$total% is below the floor of $(COVER_FLOOR)%"; exit 1; fi; \
	echo "coverage $$total% (floor $(COVER_FLOOR)%)"

# reach runs every committed command, checks that none of them changed its
# output, and audits which code no command ran. It builds every cmd/ and
# examples/ binary and the benchmark with statement coverage over the whole
# module into .reach/bin and runs this command list with GOCOVERDIR set:
#   - the four apps at -partitions 1 and 4, k-means over SVM with both
#     protocols at both layouts, nbody with a tuning cache at both layouts
#     and again over the cache the first run saved (the cache-load path);
#   - cashmere-run's other outputs on k-means: a -trace file (4 k20 nodes),
#     the -gantt chart (2 nodes) and a heterogeneous -cluster spec with
#     -metrics;
#   - plain, -chaos, -autoscale and -replay synth serving at both layouts,
#     serving with -tune, serving replayed from
#     internal/serve/testdata/replay.trace and the serve sweep (-sweep);
#   - every examples/*/ directory, and examples/graph also with -metrics at
#     both layouts;
#   - mclc -list-hardware, -feedback -cost and -tune on the matmul kernels
#     of internal/apps, and -emit on every kernel version of the four apps;
#   - cashmere-bench -experiment all, -metrics, -trace, -experiment svm with
#     -svm-json and -experiment tune with -tune-json;
#   - the five benchmark workloads at seed 1, one untraced pass each;
#   - three commands that must fail (an unknown device in a -cluster spec,
#     an unknown -app, a zero -load), each saving its stderr and exit status.
# Each command's stdout lands in .reach/out/, next to the JSON files the
# commands write; of the benchmark only its trajectory_digest lines, as the
# rest are host times, and of the two trace JSONs (45 MB) only their sha256,
# in traces.sha256. Then reach fails, naming each file, when
#   - an output at 4 partitions differs from its 1-partition twin (every
#     *-p4.txt from its -p1.txt, graph-metrics-p4.txt from graph-metrics.txt,
#     tc4.json from tc1.json);
#   - the serve sweep's JSON differs from BENCH_serve.json, or the SVM
#     experiment's from BENCH_svm.json;
#   - any other output differs from the golden tree in testdata/golden,
#     which stores each twin pair once.
# Last it prints every function no command ran (0.0%) and the total of
# unreached statements, and fails when that total exceeds REACH_CEILING.
# The benchmark's own package is dropped from the profile: go tool cover
# cannot resolve it from this module.
#
# golden runs the same commands and the same twin check, then rewrites
# testdata/golden, BENCH_serve.json and BENCH_svm.json from their outputs.
# Run it when a change moves an output on purpose, and commit the result
# with the reason: the diff of testdata/golden is the review. The golden was
# written with go1.24.0; whether other Go versions print the same bytes is
# unverified.
REACH := .reach
GOLDEN := testdata/golden
reach golden:
	@set -e; rm -rf $(REACH); mkdir -p $(REACH)/bin $(REACH)/cov $(REACH)/files $(REACH)/out; \
	$(GO) build -cover -coverpkg=cashmere/... -o $(REACH)/bin/ ./cmd/... ./examples/...; \
	$(GO) -C benchmark build -cover -coverpkg=cashmere/... -o $(CURDIR)/$(REACH)/bin/cashmere-benchmark .; \
	export GOCOVERDIR=$(CURDIR)/$(REACH)/cov; b=$(REACH)/bin; f=$(REACH)/files; o=$(REACH)/out; \
	fails() { x=$$1; shift; if "$$@" > $$x 2>&1; then s=0; else s=$$?; fi; echo "exit $$s" >> $$x; }; \
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
	$$b/cashmere-run -app nbody -nodes 4 -metrics -tune-cache $$f/tc1.json > $$o/tune-reload.txt; \
	$$b/cashmere-serve -nodes 4 -duration 500ms -tune -metrics > $$o/serve-tune.txt; \
	$$b/cashmere-serve -replay internal/serve/testdata/replay.trace -metrics > $$o/serve-replay-file.txt; \
	$$b/graph > $$o/graph.txt; $$b/graph -metrics > $$o/graph-metrics.txt; $$b/graph -metrics -partitions 4 > $$o/graph-metrics-p4.txt; \
	for d in examples/*/; do e=$$(basename $$d); [ $$e = graph ] || $$b/$$e > $$o/example-$$e.txt; done; \
	$$b/cashmere-serve -sweep -out $$f/serve-sweep.json > $$o/serve-sweep.txt; \
	for v in MatmulPerfect MatmulGPU KMeansPerfect KMeansGPU KMeansMIC NBodyPerfect NBodyGPU RaytracerPerfect; do \
		awk "/^const $$v = \`/{k=1;next} k&&/^\`/{exit} k" internal/apps/*.go > $$f/$$v.mcpl; done; \
	$$b/mclc -list-hardware > $$o/mclc-hardware.txt; \
	$$b/mclc -target gpu -params n=2048,m=2048,p=2048 -feedback -cost $$f/MatmulPerfect.mcpl > $$o/mclc-feedback.txt; \
	$$b/mclc -emit -feedback=false -params n=1024,m=1024,p=1024 -target gtx480 $$f/MatmulGPU.mcpl > $$o/mclc-emit.txt; \
	set -- RaytracerPerfect gtx480 raytracer KMeansPerfect hd7970 kmeans-perfect KMeansGPU k20 kmeans-gpu \
		KMeansMIC xeon_phi kmeans-mic NBodyPerfect xeon_phi nbody-perfect NBodyGPU titan nbody-gpu; \
	while [ $$# -gt 0 ]; do $$b/mclc -emit -feedback=false -target $$2 $$f/$$1.mcpl > $$o/mclc-emit-$$3.txt; shift 3; done; \
	$$b/mclc -tune -target gtx480 -params n=1024,m=1024,p=1024 -tune-cache $$f/mclc-tune.json $$f/MatmulPerfect.mcpl $$f/MatmulGPU.mcpl > $$o/mclc-tune.txt; \
	$$b/cashmere-bench -experiment all > $$o/bench-all.txt; \
	$$b/cashmere-bench -metrics > $$o/bench-metrics.txt; \
	$$b/cashmere-bench -trace $$f/bench-trace.json > $$o/bench-trace.txt; \
	$$b/cashmere-bench -experiment svm -svm-json $$f/svm.json > $$o/bench-svm.txt; \
	$$b/cashmere-bench -experiment tune -tune-json $$f/tune.json > $$o/bench-tune.txt; \
	$$b/cashmere-benchmark -workload all -seed 1 -out $(REACH)/bench > $(REACH)/benchmark.txt; \
	grep trajectory_digest $(REACH)/benchmark.txt > $$o/benchmark-digests.txt; \
	fails $$o/fail-run-cluster.txt $$b/cashmere-run -cluster 2xfoo; \
	fails $$o/fail-run-app.txt $$b/cashmere-run -app bogus; \
	fails $$o/fail-serve-load.txt $$b/cashmere-serve -load 0; \
	unset GOCOVERDIR; \
	for x in $$f/*.json; do case $${x##*/} in \
		run-trace.json|bench-trace.json|serve-sweep.json|svm.json) ;; *) cp $$x $$o/;; esac; done; \
	(cd $$f && sha256sum run-trace.json bench-trace.json) > $$o/traces.sha256; \
	bad=; for x in $$o/*-p4.txt $$o/tc4.json; do \
		case $$x in *tc4.json) t=$$o/tc1.json;; *) t=$${x%-p4.txt}-p1.txt; [ -e $$t ] || t=$${x%-p4.txt}.txt;; esac; \
		cmp -s $$t $$x || { echo "$$x differs from $$t"; bad=1; }; done; \
	if [ -n "$$bad" ]; then echo "outputs depend on the partition layout"; exit 1; fi; \
	if [ $@ = golden ]; then \
		rm -rf $(GOLDEN); mkdir -p $(GOLDEN); cp $$o/* $(GOLDEN)/; rm $(GOLDEN)/*-p4.txt $(GOLDEN)/tc4.json; \
		cp $$f/serve-sweep.json BENCH_serve.json; cp $$f/svm.json BENCH_svm.json; \
		echo "wrote $(GOLDEN), BENCH_serve.json and BENCH_svm.json"; exit 0; fi; \
	cmp -s $$f/serve-sweep.json BENCH_serve.json || { echo "$$f/serve-sweep.json differs from BENCH_serve.json"; bad=1; }; \
	cmp -s $$f/svm.json BENCH_svm.json || { echo "$$f/svm.json differs from BENCH_svm.json"; bad=1; }; \
	diff -rq -x '*-p4.txt' -x tc4.json $(GOLDEN) $$o || bad=1; \
	if [ -n "$$bad" ]; then echo "outputs differ from the golden; if the change means to move them, run make golden and say why"; exit 1; fi; \
	$(GO) tool covdata textfmt -i=$(REACH)/cov -o $(REACH)/all.out; \
	grep -v '^cashmere/benchmark/' $(REACH)/all.out > $(REACH)/reach.out; \
	$(GO) tool cover -func=$(REACH)/reach.out | awk '$$NF == "0.0%"'; \
	awk -v c=$(REACH_CEILING) 'NR > 1 { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
		END { for (k in n) { t += n[k]; if (!(k in hit)) u += n[k] } \
		printf "unreached: %d of %d statements (ceiling %d)\n", u, t, c; \
		if (u > c) { print "unreached statements exceed REACH_CEILING"; exit 1 } }' $(REACH)/reach.out

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

# bench-allocs enforces the pinned zero-allocation contracts: the simnet
# event loop (hold; pingpong between coroutines receiving through
# Chan.Await inside StepUntil; timeout, a reply awaited the same way with a
# deadline and answered before it by a coroutine responder, and step, by a
# step-process responder; and stepuntil, a coroutine stepping through
# expired deadlines inside StepUntil; the unanchored -bench pattern runs
# every BenchmarkSimnetEventLoop case), the simnet event queue
# (BenchmarkEventHeap's alternate, pairs and fold cases at depths 16, 64
# and 256 — fold is a timed receive's decrease-key into a vacant root; its
# containerheap oracle allocates by design and is not pinned),
# the pooled network message path (bulk, control, bulk from two senders
# whose couriers queue on one ingress link — each sent by a coroutine in
# Send, which runs a pooled send machine inside StepUntil — and bulk sent by
# a step process through BeginSend/FinishSend), disabled tracing, the
# device-runtime enqueue path (BenchmarkLaunchPath), the dataflow-graph
# submit path (BenchmarkGraphSubmitPath), the serving admission fast
# path (BenchmarkServeAdmitPath), one remote serving batch round trip run
# as steps — slot, serve_batch, pooled batch server, a stepped launch,
# serve_done — (BenchmarkServeBatchPath/launch), the
# SVM steady-state re-fault path (BenchmarkSVMRefault) and the memoized
# kernel-cost lookup, for a repeated launch and for raytracer leaves that
# differ in a parameter the cost never reads (BenchmarkKernelCost/memoized
# and /raytrace-memoized), an idle cluster's failed steal probes
# (BenchmarkFailedProbe) and a kernel-set memo hit, whose variadic sources
# must not escape (BenchmarkNewKernelSet/hit; /miss, which parses, is
# reported unpinned), must all report 0 allocs/op. CI fails if any of
# them regresses above zero.
bench-allocs:
	@$(GO) test -run xxx -benchmem -benchtime 2000x \
		-bench 'BenchmarkSimnetEventLoop|BenchmarkEventHeap|BenchmarkNetworkMessageRate|BenchmarkTraceOverhead|BenchmarkLaunchPath|BenchmarkGraphSubmitPath|BenchmarkServeAdmitPath|BenchmarkServeBatchPath|BenchmarkSVMRefault|BenchmarkKernelCost|BenchmarkFailedProbe|BenchmarkNewKernelSet' \
		./internal/simnet/ ./internal/network/ ./internal/trace/ ./internal/ocl/ ./internal/core/ ./internal/svm/ ./internal/serve/ ./internal/satin/ ./internal/mcl/codegen/ | tee bench-allocs.out
	@bad=$$(awk '/allocs\/op/ { name=$$1; sub(/-[0-9]+$$/, "", name); \
		if (name ~ /^(BenchmarkSimnetEventLoop\/hold|BenchmarkSimnetEventLoop\/pingpong|BenchmarkSimnetEventLoop\/timeout|BenchmarkSimnetEventLoop\/step|BenchmarkSimnetEventLoop\/stepuntil|BenchmarkEventHeap\/(alternate|pairs|fold)\/depth=(16|64|256)|BenchmarkNetworkMessageRate\/bulk|BenchmarkNetworkMessageRate\/ctl|BenchmarkNetworkMessageRate\/contended|BenchmarkNetworkMessageRate\/stepped|BenchmarkTraceOverhead\/off|BenchmarkTraceOverhead\/off\/span-only|BenchmarkTraceOverheadDevice\/off|BenchmarkLaunchPath|BenchmarkGraphSubmitPath|BenchmarkServeAdmitPath|BenchmarkServeBatchPath\/launch|BenchmarkSVMRefault|BenchmarkKernelCost\/memoized|BenchmarkKernelCost\/raytrace-memoized|BenchmarkFailedProbe|BenchmarkNewKernelSet\/hit)$$/ \
		&& $$(NF-1)+0 > 0) print name, $$(NF-1), "allocs/op" }' bench-allocs.out); \
	if [ -n "$$bad" ]; then echo "zero-alloc benchmarks regressed:"; echo "$$bad"; exit 1; fi; \
	echo "all pinned benchmarks at 0 allocs/op"

# bench-svm regenerates the transfer-model crossover recorded in
# BENCH_svm.json: explicit copies vs demand-paged shared virtual memory
# (both protocols) from sparse iterative reuse to bulk streaming.
bench-svm:
	$(GO) run ./cmd/cashmere-bench -experiment svm -svm-json BENCH_svm.json
