# Tier-1 verification (see ROADMAP.md): the full build + test sweep, plus a
# race-detector pass over the concurrency-heavy packages (transport mesh,
# collectives, live runtime, controller, public API). `make ci` is what a
# commit must keep green.

GO ?= go

# Packages whose tests exercise real goroutine concurrency and therefore run
# under the race detector as part of tier-1.
RACE_PKGS := ./internal/transport/ ./internal/collective/ ./internal/live/ ./internal/controller/ ./internal/policy/ ./internal/engine/ ./internal/tensor/ ./internal/bufpool/ ./internal/analyze/ ./internal/health/ ./internal/trace/ ./internal/metrics/ .

.PHONY: ci vet build test race fmaguard allocgate flakegate chaos trace-smoke ctrlguard callerless bench bench-smoke pairs fuzz sweepdiff loc clean

ci: vet build test race fmaguard allocgate flakegate chaos trace-smoke ctrlguard callerless bench-smoke

# One service core: the controller's signal and membership transitions are
# driven only by internal/engine/service.go, which the simulator and the live
# runtime both feed; a second call site is a second service loop, free to
# drift from the first.
ctrlguard:
	@bad=$$(grep -rnE '\bctrl\.(Ready|Drain|Decommission|AbortGroup|Fail|Join|Rejoin|PurgeSignal)\(' internal cmd \
		| grep -v '_test\.go:' | grep -v '^internal/engine/service\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "controller transitions called outside the service core:"; \
		echo "$$bad"; exit 1; \
	fi; echo "ctrlguard: ok"

# No product caller, no code: an exported func or method under internal/ that
# only tests reach, or a config field that only tests set, is deleted with
# those tests or justified, one line each, in scripts/callerless.allow (the
# script's header states the rule and its limits).
callerless:
	@sh scripts/callerless.sh && echo "callerless: ok"

# staticcheck is optional tooling: run it when the binary is on PATH, skip
# quietly otherwise so ci stays green on minimal containers.
vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# FMA guard: every float expression rounds where the Go spec says, on every
# arch. A compiler may fuse x*y + z into one multiply-add unless the product
# is converted (float64(x*y)); arm64, loong64, ppc64le, riscv64 and s390x do,
# so an unconverted site trains and simulates different bits there than on
# amd64 (and than the AVX2 kernels, which never fuse). Each is cross-compiled
# with -S, as is amd64 at GOAMD64=v3 (which has FMA; Go does not contract
# there today), and any fused instruction fails the gate naming its line.
# -S lists compiled Go only, so the hand-written assembly (*.s) is grepped for
# the same mnemonics on its own: a kernel lane that fused would round once
# where its Go loop rounds twice.
FMA_RE := \sV?FN?M(ADD|SUB)[0-9]*[SDP]*\s
fmaguard:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	for a in arm64 loong64 ppc64le riscv64 s390x amd64; do \
		GOARCH=$$a GOAMD64=v3 $(GO) build -gcflags=-S ./... >"$$tmp" 2>&1 || { grep -v '^	' "$$tmp" | tail; exit 1; }; \
		bad=$$(grep -E '$(FMA_RE)' "$$tmp" | grep -oE '[^ (]+\.go:[0-9]+' | sort -u); \
		if [ -n "$$bad" ]; then echo "fmaguard: GOARCH=$$a fuses a multiply-add at:"; echo "$$bad"; exit 1; fi; \
	done; \
	bad=$$(find . -name '*.s' ! -path './bench/*' ! -path './.bench_build/*' | xargs grep -nHE '$(FMA_RE)' || true); \
	if [ -n "$$bad" ]; then echo "fmaguard: hand-written assembly fuses a multiply-add at:"; echo "$$bad"; exit 1; fi; \
	echo "fmaguard: ok"

# Zero-allocation gate: the steady-state training step (pool Get/Put, Mem and
# loopback-TCP Send/RecvInto round trips, full segmented ring in place (4
# ranks at 4 Ki; 8 at 32 Ki as the live All-Reduce runs it, AllReduceApply
# with a real SGD range update) and out of place, the out-of-place ring over
# loopback TCP at its 32 Ki frame size, the small-input exchange over Mem
# and TCP at 108 elements and g = 3, 4 and 8 (the root's gather and
# broadcast, and every other member's send and receive), kernel dispatch,
# the gradient with its views bound, the factored B = 1 local step, a
# worker decoding the controller's reply) must not touch the heap. The
# assertions skip themselves under -race (whose instrumentation allocates),
# so ci runs them in a dedicated non-race pass.
allocgate:
	$(GO) test ./internal/bufpool/ -run TestSteadyStateGetPutAllocFree -count 1
	$(GO) test ./internal/transport/ -run 'TestRecvIntoSteadyStateAllocFree|TestTCPSendRecvSteadyStateAllocFree' -count 1
	$(GO) test ./internal/collective/ -run 'TestAllReduceSteadyStateAllocFree|TestReduceIntoSteadyStateAllocFree|TestReduceIntoTCPSteadyStateAllocFree|TestExchangeSteadyStateAllocFree' -count 1
	$(GO) test ./internal/tensor/ -run TestAddScaledDispatchAllocFree -count 1
	$(GO) test ./internal/model/ -run 'TestGradientSteadyStateAllocFree|TestFactoredStepSteadyStateAllocFree' -count 1
	$(GO) test ./internal/live/ -run TestDecodeDirectiveReusesGroupSlices -count 1

# Flake gate: the quiet-run watchdog test finishes in ~10 ms, well inside its
# own 5 ms evaluation cadence on a fast host, so it passes only because the
# service core evaluates once more at exit. 200 runs on one and on eight Ps
# keep a scheduling-dependent regression from hiding behind a lucky run. The
# control-frame loss table (a lost ready frame, reply, abort stream, ready
# stream) races 40 ms re-send deadlines against the run: 20 runs on each.
flakegate:
	GOMAXPROCS=1 $(GO) test ./internal/live/ -run TestLiveWatchdogQuietRunStaysClean -count 200
	GOMAXPROCS=8 $(GO) test ./internal/live/ -run TestLiveWatchdogQuietRunStaysClean -count 200
	GOMAXPROCS=1 $(GO) test ./internal/live/ -run TestRunWorkerControlFrameLoss -count 20
	GOMAXPROCS=8 $(GO) test ./internal/live/ -run TestRunWorkerControlFrameLoss -count 20

# Seeded chaos soak: worker fail-stop + timed network partition + elastic
# join/drain staircase composed in one run, swept across seeds under the race
# detector. Every fault comes from outside the product: the fail-stop from the
# Faulty transport's crash-after-sends plan, the partition from its timed
# window. ci runs the default sweep; raise CHAOS_SEEDS for a longer soak. Any
# failure reproduces from the logged seed.
CHAOS_SEEDS ?= 4
chaos:
	PREDUCE_CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race ./internal/live/ -run TestChaosSoak -count 1
	$(GO) test -race ./internal/policy/ -count 1

# End-to-end observability smoke: a seeded simulator trace export and one
# seeded three-rank straggler run that serves /metrics+pprof (scraped
# mid-run), dumps the scoreboard, and arms the watchdog and flight recorder
# (/healthz must flip to 503 naming blame-spike; exactly one postmortem
# bundle must land). preduce-analyze -validate then reads every artifact:
# the Chrome traces, the merged live traces, and the bundle with the blame
# report of its trace ring.
trace-smoke:
	sh scripts/trace_smoke.sh

# Training-step microbenchmarks, printed for a human: nothing is written and
# no absolute number is compared (an ns/op recorded on one machine says
# nothing on another). The two gates here are relative, measured inside one
# process (traced vs untraced all-reduce <3%, policy decision vs static
# controller). BenchmarkLiveStep is bench/'s comm_mem and comm_tcp workloads
# as a Go benchmark (/mem, /tcp, each at seg=transport — the transport's own
# segment, what shipped runs use — and the 4Ki|16Ki|32Ki|64Ki overrides; the
# in-process P = 4 and 5 and All-Reduce cells /mem-p4, /mem-p5, /mem-ar at
# seg=transport|4Ki|32Ki, and ctrl_tcp's All-Reduce, /ctrl-ar, and its
# P-Reduce, /ctrl: eight RunWorker ranks, rank 0 hosting the controller):
# select one cell and add -cpuprofile for the product's per-step profile.
# BenchmarkReduceIntoSmall is ctrl_tcp's 108-element average over loopback
# TCP and in process at g = 3, 4 and 8, the exchange against the ring it
# replaces, plus both paths at the exchange rule's bound and twice it.
# BenchmarkTCPRoundTrip is a loopback ping-pong at 3, 36 and 32 Ki elements
# (a signal, a ctrl_tcp ring segment, a comm_tcp frame): the per-frame cost
# of the read loop, profiled the same way.
# Per-layer numbers from a real run: bash bench/run.sh --workload W --trace 1.
BENCHTIME ?= 1s
bench:
	$(GO) test -p 1 ./internal/collective/ ./internal/transport/ ./internal/tensor/ ./internal/model/ ./internal/optim/ ./internal/live/ \
		-run '^$$' -bench 'BenchmarkAllReduceSum$$|BenchmarkAllReduceSumTraced$$|BenchmarkReduceInto$$|BenchmarkReduceIntoSmall|BenchmarkRingSegmented|BenchmarkEncodeFrame|BenchmarkReadFrame|BenchmarkSendRecvInto|BenchmarkTCPRoundTrip|BenchmarkAddScaled|BenchmarkMulVec$$|BenchmarkMLPGradient$$|BenchmarkFactoredStep$$|BenchmarkSGDUpdate$$|BenchmarkLiveStep$$' \
		-benchmem -benchtime $(BENCHTIME)
	PREDUCE_TRACEGATE=1 $(GO) test ./internal/collective/ -run TestTraceOverheadGate -count 1 -v
	$(GO) test ./internal/policy/ -run '^$$' -bench BenchmarkPolicyDecide -benchmem -benchtime $(BENCHTIME)
	PREDUCE_POLICYGATE=1 $(GO) test ./internal/policy/ -run TestPolicyDecideGate -count 1 -v

# bench/ is a module of its own (see BENCHMARK.json), so the root build and
# test sweep never notice when a change to internal/live or the public API
# breaks it. Build and test it, then run each gated workload once at smoke
# size; any failed rep exits non-zero.
BENCH_WORKLOADS := comm_mem comm_tcp ctrl_tcp hetero
bench-smoke:
	cd bench && $(GO) test ./...
	@for w in $(BENCH_WORKLOADS); do \
		echo "bench-smoke: $$w"; \
		bash bench/run.sh --workload $$w -smoke >/dev/null || exit 1; \
	done

# Paired comparison of the repository benchmark against another commit:
# PAIRS alternating pairs per workload plus held-out seed 2002 in both orders,
# both sides linked at five random code layouts and pair i run at layout
# i mod 5, all binaries run from one directory (scripts/pairs.sh). Not in ci
# (~13 min per workload at 10 pairs). BASE=HEAD on a clean tree is the A/A
# noise floor.
PAIRS ?= 10
WORKLOADS ?= $(BENCH_WORKLOADS)
pairs:
	sh scripts/pairs.sh $(BASE) "$(WORKLOADS)" $(PAIRS)

# Short fuzz pass over the wire codecs — transport frames (one at a time, as a
# stream through the read loop's buffered reader, and from the value side) and
# the live control payloads (longer runs: raise FUZZTIME).
FUZZTIME ?= 15s
fuzz:
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzFrameCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzFrameStream -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/live/ -run '^$$' -fuzz FuzzControlCodec -fuzztime $(FUZZTIME)

# Simulator byte-identity against another commit: every sweep CSV, the traced
# run and timing-stripped stdout of preduce-bench must equal BASE's for the
# same seed. Not in ci (~7 min); run it for any change that claims the
# sweeps are untouched: make sweepdiff BASE=HEAD~1
sweepdiff:
	sh scripts/sweepdiff.sh $(BASE)

# Non-test Go lines per internal package and for the whole module (bench/ is
# a module of its own and is not counted), then the assembly lines, which
# are reported on their own row and not in the total.
loc:
	@for d in internal/*/; do printf '%6d %s\n' $$(cat $$(ls $$d*.go | grep -v _test.go) | wc -l) $$d; done
	@printf '%6d total\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)
	@printf '%6d assembly (.s)\n' $$(find . -name '*.s' ! -path './bench/*' ! -path './.bench_build/*' | xargs cat | wc -l)

clean:
	$(GO) clean ./...
