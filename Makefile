# Local targets mirroring .github/workflows/ci.yml: `make ci` runs the
# blocking CI job's build, vet, lint, gofmt, short race test, example,
# golden-replay, benchmark-smoke and bench-module steps. `make bench` runs
# the repository benchmark (bench/), the one source of performance numbers.

GO ?= go

.PHONY: build test test-short examples bench bench-check bench-smoke golden pins fuzz fuzz-sweep fmt fmt-check vet lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short -race ./...

# Run both examples, not only build them.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/wire

# The repository benchmark (bench/, BENCHMARK.json): every workload once on
# seed 7 at the end-to-end tier. run.sh exits non-zero on a failed
# correctness check, and the loop stops there.
bench:
	@for w in capture capture-fxp sparse service; do \
		bash bench/run.sh --workload $$w --seed 7 --seconds 20 --trace 0 || exit 1; \
	done

# Every Go Benchmark* function once (the root package and the internal
# packages; the bench/ module has none), so a benchmark that no longer
# builds, fails or deadlocks fails CI. It times nothing: numbers come
# from `make bench`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The bench module's vet and tests: a tiny-scale run of every workload with
# its correctness checks, plus the BENCHMARK.json pin (blocking in CI).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# The pin gate (blocking in CI): every pinned output (the golden trace's
# decisions, the gateway, stream and decoder pins, the quick experiment
# tables, `saiyan wave`) against the ledger testdata/pins.txt; the first
# three packages run twice, so the second run meets warm calibration memos.
# After an intended change, `make pins` rewrites the entries that moved and
# prints old -> new; -p 1 keeps the test binaries from racing on the file.
PIN_TESTS = TestGoldenTraceReplay|TestGatewayOutputPinned|TestStreamOutputPinned|TestFxpCorrelationPinned|TestPeakTrackingPinned|TestAllExperimentsQuick|TestWaveOutputPinned
golden:
	$(GO) test -run '$(PIN_TESTS)' -count=2 -v ./internal/pipeline ./internal/gateway ./internal/stream
	$(GO) test -run '$(PIN_TESTS)' -count=1 -v ./internal/core ./internal/experiments ./cmd/saiyan

pins:
	$(GO) test -p 1 -count=1 -v -run '$(PIN_TESTS)' ./internal/pipeline ./internal/gateway ./internal/stream ./internal/core ./internal/experiments ./cmd/saiyan -args -update-pins

# Short fuzz session over the trace codec.
fuzz:
	$(GO) test -run FuzzTraceRoundTrip -fuzz FuzzTraceRoundTrip -fuzztime 30s ./internal/trace

# Scheduled CI fuzz sweep: ~12 minutes split across the twelve codec,
# datapath, render, detection, decode and segmentation fuzzers (go test
# allows one -fuzz target per invocation). FuzzChunkRead covers the
# framing shared by traces, the wire and flight dumps; the trace and wire
# fuzzers cover their payload codecs. FuzzADCQuantize holds the batch ADC
# quantizer to its per-sample Code. FuzzFIRApply holds the interleaved FIR
# kernel bit-exact to the one-output-at-a-time reference loop, FuzzFusedIF
# holds the fused IF filter to the two-stage chain, FuzzFirstPeriodicRun
# checks the preamble hunt's periodic-run search, FuzzCorrelationRun holds
# the early-exit correlation run to the full correlation's peaks,
# FuzzCorrelationDecode holds the batched payload correlation decoder to
# the per-symbol loop, and FuzzSegmenterChunking holds the stream
# segmenter's windows invariant to how the capture is chunked.
FUZZ_TIME ?= 60s
fuzz-sweep:
	$(GO) test -run FuzzChunkRead -fuzz FuzzChunkRead -fuzztime $(FUZZ_TIME) ./internal/chunk
	$(GO) test -run FuzzTraceRoundTrip -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZ_TIME) ./internal/trace
	$(GO) test -run FuzzWireFrame -fuzz FuzzWireFrame -fuzztime $(FUZZ_TIME) ./internal/server
	$(GO) test -run FuzzCommandRoundTrip -fuzz FuzzCommandRoundTrip -fuzztime $(FUZZ_TIME) ./internal/mac
	$(GO) test -run FuzzFxpOps -fuzz FuzzFxpOps -fuzztime $(FUZZ_TIME) ./internal/fxp
	$(GO) test -run FuzzADCQuantize -fuzz FuzzADCQuantize -fuzztime $(FUZZ_TIME) ./internal/fxp
	$(GO) test -run FuzzFIRApply -fuzz FuzzFIRApply -fuzztime $(FUZZ_TIME) ./internal/dsp
	$(GO) test -run FuzzFusedIF -fuzz FuzzFusedIF -fuzztime $(FUZZ_TIME) ./internal/core
	$(GO) test -run FuzzFirstPeriodicRun -fuzz FuzzFirstPeriodicRun -fuzztime $(FUZZ_TIME) ./internal/core
	$(GO) test -run FuzzCorrelationRun -fuzz FuzzCorrelationRun -fuzztime $(FUZZ_TIME) ./internal/core
	$(GO) test -run FuzzCorrelationDecode -fuzz FuzzCorrelationDecode -fuzztime $(FUZZ_TIME) ./internal/core
	$(GO) test -run FuzzSegmenterChunking -fuzz FuzzSegmenterChunking -fuzztime $(FUZZ_TIME) ./internal/stream

fmt:
	gofmt -w .

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# saiyanvet: the repo's own analyzers (determinism, fxpsat, hotalloc,
# obsgate, ctxfirst), run through `go vet -vettool` so results cache per
# package like any other vet pass. Blocking in CI. The whole-program
# dead-code guard, which fails on declarations no main, init or
# //lint:allow unused declaration can reach, cannot run per package, so it
# is a test instead (internal/lint TestNoUnreferencedDecls) that
# test-short runs too.
lint:
	$(GO) build -o bin/saiyanvet ./cmd/saiyanvet
	$(GO) vet -vettool=$(CURDIR)/bin/saiyanvet ./...

ci: build vet lint fmt-check test-short examples golden bench-smoke bench-check
