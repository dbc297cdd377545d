# Tier-1 verification and perf targets. `make check` is the one-command
# gate: build, vet, tests, and the race detector over the concurrent
# suite runner.

GO ?= go

.PHONY: check build vet test race fuzz smoke-faults smoke-scale smoke-soak smoke-serve bench-smoke bench-json bench-mem bench-guard

check: build vet test race fuzz smoke-faults smoke-scale smoke-soak smoke-serve

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs every test, none skipped, under the race detector. It takes
# about 1m40s on a 2-CPU box (about 1 minute of it the root package,
# whose 512-node golden points are the slowest tests). The 40-minute
# timeout is headroom for slower or busier machines.
race:
	$(GO) test -race -timeout 40m ./...

# fuzz runs each native fuzz target briefly past its seed corpus
# (f.Add seeds plus testdata/fuzz); plain `go test` already replays the
# corpora. go test fuzzes one target per invocation.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDiffApplyRoundTrip$$' -fuzztime 10s ./internal/memory
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime 10s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzLatencyMergeQuantile$$' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzConfigValidate$$' -fuzztime 10s ./internal/topo

# smoke-faults exercises the fault-injection + NI reliable-delivery
# recovery path end to end: one short app at a 1% drop rate (with dups,
# delays, and corruption mixed in), validated against the sequential
# reference.
smoke-faults:
	$(GO) run ./cmd/genima-run -app fft -scale test -proto GeNIMA \
		-faults 0.01 -fault-seed 42 > /dev/null

# smoke-scale exercises the multi-stage fabrics end to end: one short
# app on a radix-32 clos2 under Base (interrupt barrier, flat) and
# GeNIMA (NI collective tree) at 64 nodes, plus a 128-node radix-16
# clos2 GeNIMA leg — all with 1% faults, validated against the
# sequential reference.
smoke-scale:
	$(GO) run ./cmd/genima-run -app barrierbench -scale test -proto Base \
		-nodes 64 -procs 1 -topo clos2 -radix 32 \
		-faults 0.01 -fault-seed 42 > /dev/null
	$(GO) run ./cmd/genima-run -app barrierbench -scale test -proto GeNIMA \
		-nodes 64 -procs 1 -topo clos2 -radix 32 -collectives \
		-faults 0.01 -fault-seed 42 > /dev/null
	$(GO) run ./cmd/genima-run -app barrierbench -scale test -proto GeNIMA \
		-nodes 128 -procs 1 -topo clos2 -radix 16 -collectives \
		-faults 0.01 -fault-seed 42 > /dev/null

# smoke-soak exercises soak-scale long-run ops end to end, asserting
# checkpoint/restore determinism from the shell like an operator would:
#   (1) single run under faults: halt at a rolling-checkpoint boundary
#       (exit 130), restore, final canonical trace hash must be
#       byte-identical to an uninterrupted run's;
#   (2) soak campaign under faults: kill -INT once the first rolling
#       cursor checkpoint lands (signal-safe shutdown, exit 130),
#       resume with -soak-restore, final verification chain must equal
#       an uninterrupted campaign's, and the JSONL stats log is
#       non-empty.
SOAKTMP := /tmp/genima-smoke-soak
smoke-soak:
	rm -rf $(SOAKTMP) && mkdir -p $(SOAKTMP)
	$(GO) build -o $(SOAKTMP)/genima-run ./cmd/genima-run
	$(GO) build -o $(SOAKTMP)/genima-bench ./cmd/genima-bench
	$(SOAKTMP)/genima-run -app fft -scale bench -proto GeNIMA -verify=false \
		-faults 0.01 -fault-seed 42 -trace-hash \
		| grep -o 'trace-hash=[0-9a-f]*' > $(SOAKTMP)/hash.full
	sh -c '$(SOAKTMP)/genima-run -app fft -scale bench -proto GeNIMA -verify=false \
		-faults 0.01 -fault-seed 42 -trace-hash \
		-checkpoint $(SOAKTMP)/run.ckpt -checkpoint-every 1000 -stop-after 3 \
		> /dev/null 2> $(SOAKTMP)/halt.err; test $$? -eq 130'
	$(SOAKTMP)/genima-run -app fft -scale bench -proto GeNIMA -verify=false \
		-faults 0.01 -fault-seed 42 -trace-hash -restore $(SOAKTMP)/run.ckpt \
		| grep -o 'trace-hash=[0-9a-f]*' > $(SOAKTMP)/hash.resumed
	cmp $(SOAKTMP)/hash.full $(SOAKTMP)/hash.resumed
	$(SOAKTMP)/genima-bench -exp soak -scale test -soak-events 4000000 \
		-faults 0.01 -fault-seed 5 -q \
		| grep -o 'chain=[0-9a-f]*' > $(SOAKTMP)/chain.full
	sh -c '$(SOAKTMP)/genima-bench -exp soak -scale test -soak-events 4000000 \
		-faults 0.01 -fault-seed 5 -q \
		-soak-checkpoint $(SOAKTMP)/soak.ckpt -soak-stats $(SOAKTMP)/soak.jsonl \
		> $(SOAKTMP)/soak.out 2>&1 & pid=$$!; \
		n=0; until test -f $(SOAKTMP)/soak.ckpt; do \
			n=$$((n+1)); test $$n -lt 200 || exit 1; sleep 0.05; \
		done; \
		kill -INT $$pid; wait $$pid; st=$$?; \
		test $$st -eq 130 || { echo "soak kill leg: exit $$st, want 130" \
			"(campaign too short? raise -soak-events)"; exit 1; }'
	$(SOAKTMP)/genima-bench -exp soak -scale test -soak-events 4000000 \
		-faults 0.01 -fault-seed 5 -q -soak-restore \
		-soak-checkpoint $(SOAKTMP)/soak.ckpt -soak-stats $(SOAKTMP)/soak.jsonl \
		| grep -o 'chain=[0-9a-f]*' > $(SOAKTMP)/chain.resumed
	cmp $(SOAKTMP)/chain.full $(SOAKTMP)/chain.resumed
	test -s $(SOAKTMP)/soak.jsonl
	rm -rf $(SOAKTMP)

# smoke-serve exercises the svmkv open-loop serving workload end to
# end at test scale on two protocol rungs (interrupt-driven Base and
# synchronous-NI GeNIMA, the latter under 1% faults), each validated
# against the sequential reference. Each rung runs twice and the two
# canonical trace hashes must be byte-identical: repeated runs of the
# serving path are deterministic.
SERVETMP := /tmp/genima-smoke-serve
smoke-serve:
	rm -rf $(SERVETMP) && mkdir -p $(SERVETMP)
	$(GO) build -o $(SERVETMP)/genima-run ./cmd/genima-run
	for i in 1 2; do \
		$(SERVETMP)/genima-run -app svmkv -scale test -proto Base \
			-trace-hash | grep -o 'trace-hash=[0-9a-f]*' > $(SERVETMP)/base.$$i || exit 1; \
		$(SERVETMP)/genima-run -app svmkv -scale test -proto GeNIMA \
			-faults 0.01 -fault-seed 42 -trace-hash \
			| grep -o 'trace-hash=[0-9a-f]*' > $(SERVETMP)/genima.$$i || exit 1; \
	done
	cmp $(SERVETMP)/base.1 $(SERVETMP)/base.2
	cmp $(SERVETMP)/genima.1 $(SERVETMP)/genima.2
	rm -rf $(SERVETMP)

# bench-smoke runs every micro- and suite-benchmark once — a fast "do
# the benchmarks still build and run" gate, not a measurement.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/sim ./internal/memory ./internal/vmmc
	$(GO) test -run xxx -bench 'Suite|CollectiveBarrier' -benchtime 1x .

# bench-mem measures allocation pressure on the messaging hot paths
# (Deposit, remote fetch, broadcast, NI locks). The pooled pipeline
# keeps the closed-loop paths at 0 allocs/op.
bench-mem:
	$(GO) test -run xxx -bench . -benchmem ./internal/vmmc ./internal/sim

# bench-json refreshes BENCH_sim.json: the wall-clock serial-vs-parallel
# suite comparison for the perf trajectory (see DESIGN.md §7).
bench-json:
	$(GO) run ./cmd/genima-bench -benchjson BENCH_sim.json -scale test -q

# bench-guard fails if serial suite throughput regressed more than 25%
# against the committed BENCH_sim.json baseline (best of two passes, so
# one scheduling hiccup on a shared box does not fail the build).
bench-guard:
	$(GO) run ./cmd/genima-bench -benchguard BENCH_sim.json -q
