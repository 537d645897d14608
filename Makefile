# Local targets mirroring .github/workflows/ci.yml: `make ci` runs the
# blocking CI job's build, vet, lint, gofmt, short race test, example,
# golden-replay, benchmark-smoke and bench-module steps. `make bench` runs
# the repository benchmark (bench/), the one source of performance numbers.

GO ?= go

.PHONY: build test test-short examples bench bench-check bench-smoke golden fuzz fuzz-sweep fmt fmt-check vet lint ci

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

# Replay the checked-in golden trace and check the gateway, stream,
# peak-tracking, experiment-table and waveform output pins (blocking in
# CI). After an intentional demodulator behavior change, regenerate the
# trace with:
#   go test ./internal/pipeline -run TestGoldenTraceReplay -update-golden
# and set gatewayOutputPin (internal/gateway/pin_test.go) to the hash
# TestGatewayOutputPinned reports. After one to the stream receive path
# (the jobs stream.Source yields, or stream.Demodulate's counters), set
# streamOutputPin (internal/stream/pin_test.go) to the hash
# TestStreamOutputPinned reports. After an intentional change to the
# comparator (ModeVanilla/ModeFreqShift) decoders on either datapath, set
# peakTrackingPin (internal/core/pin_test.go) to the hash
# TestPeakTrackingPinned reports. After an intentional change to a
# quick-mode experiment table, set experimentTablesPin
# (internal/experiments/experiments_test.go) to the hash
# TestAllExperimentsQuick reports outside -short; after one to a waveform,
# set the hashes in cmd/saiyan/wave_test.go to those TestWaveOutputPinned
# reports. The golden trace, gateway and stream pins run twice in one
# process, so the second run replays against warm calibration memos
# (core.Prewarmed and the segmenter's hunt calibrations) and must hash the
# same.
golden:
	$(GO) test -run 'TestGoldenTraceReplay|TestGatewayOutputPinned|TestStreamOutputPinned' -count=2 -v ./internal/pipeline ./internal/gateway ./internal/stream
	$(GO) test -run 'TestPeakTrackingPinned|TestAllExperimentsQuick|TestWaveOutputPinned' -count=1 -v ./internal/core ./internal/experiments ./cmd/saiyan

# Short fuzz session over the trace codec.
fuzz:
	$(GO) test -run FuzzTraceRoundTrip -fuzz FuzzTraceRoundTrip -fuzztime 30s ./internal/trace

# Scheduled CI fuzz sweep: ~10 minutes split across the ten codec,
# datapath, render, detection and segmentation fuzzers (go test allows one
# -fuzz target per invocation). FuzzChunkRead covers the framing shared by
# traces, the wire and flight dumps; the trace and wire fuzzers cover their
# payload codecs. FuzzFIRApply holds the interleaved FIR kernel bit-exact
# to the one-output-at-a-time reference loop, FuzzFusedIF holds the fused
# IF filter to the two-stage chain, FuzzFirstPeriodicRun checks the
# preamble hunt's periodic-run search, FuzzCorrelationRun holds the
# early-exit correlation run to the full correlation's peaks, and
# FuzzSegmenterChunking holds the stream segmenter's windows invariant to
# how the capture is chunked.
FUZZ_TIME ?= 60s
fuzz-sweep:
	$(GO) test -run FuzzChunkRead -fuzz FuzzChunkRead -fuzztime $(FUZZ_TIME) ./internal/chunk
	$(GO) test -run FuzzTraceRoundTrip -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZ_TIME) ./internal/trace
	$(GO) test -run FuzzWireFrame -fuzz FuzzWireFrame -fuzztime $(FUZZ_TIME) ./internal/server
	$(GO) test -run FuzzCommandRoundTrip -fuzz FuzzCommandRoundTrip -fuzztime $(FUZZ_TIME) ./internal/mac
	$(GO) test -run FuzzFxpOps -fuzz FuzzFxpOps -fuzztime $(FUZZ_TIME) ./internal/fxp
	$(GO) test -run FuzzFIRApply -fuzz FuzzFIRApply -fuzztime $(FUZZ_TIME) ./internal/dsp
	$(GO) test -run FuzzFusedIF -fuzz FuzzFusedIF -fuzztime $(FUZZ_TIME) ./internal/core
	$(GO) test -run FuzzFirstPeriodicRun -fuzz FuzzFirstPeriodicRun -fuzztime $(FUZZ_TIME) ./internal/core
	$(GO) test -run FuzzCorrelationRun -fuzz FuzzCorrelationRun -fuzztime $(FUZZ_TIME) ./internal/core
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
