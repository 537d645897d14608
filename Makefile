# Local targets mirroring .github/workflows/ci.yml, so `make ci` reproduces
# exactly what the blocking CI job runs.

GO ?= go

.PHONY: build test test-short examples bench bench.txt bench-json golden fuzz fuzz-sweep fmt fmt-check vet lint ci

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

bench:
	$(GO) test -bench=. -benchtime=1x -benchmem ./...

# Bench smoke with results archived as JSON (what the CI full job uploads).
# One pattern rule cuts every benchmark family's artifact from the same
# bench.txt, filtering by benchmark name prefix; adding a family is one
# variable line. BENCH_pipeline.json carries the per-frame pipeline's
# worker-scaling runs (BenchmarkPipeline*) only: the BenchmarkFig*/Table*
# experiment regenerations and the BenchmarkAblation* runs are
# reproduction workloads, not performance measurements, and stay out of
# every artifact.
BENCH_FAMILIES        = pipeline stream gateway fxp flight health render
BENCH_FILTER_pipeline = BenchmarkPipeline
BENCH_FILTER_stream   = BenchmarkStream
BENCH_FILTER_gateway  = BenchmarkGateway
# BENCH_fxp.json carries both sides of the float-vs-fxp ns/frame
# comparison: the BenchmarkFxpPipeline* variants run the integer MCU
# datapath, the BenchmarkFxpFloatRef* twins run the float reference.
BENCH_FILTER_fxp      = BenchmarkFxp
# BENCH_flight.json carries the flight-recorder on/off twins; their B/op
# and allocs/op columns must stay identical (the ring append path is
# zero-alloc, pinned by TestFlightRecorderAllocNeutral).
BENCH_FILTER_flight   = BenchmarkFlight
# BENCH_health.json carries the link-health plane's cost twins: the
# store-level BenchmarkHealthOn/Off pair (identical 0 allocs/op — the
# plane's marginal epoch cost) plus the gateway-loop throughput context.
BENCH_FILTER_health   = BenchmarkHealth
# BENCH_render.json tracks the render layer (stage sim.render):
# BenchmarkRenderTimeline's ns/frame and allocs/frame over one 16-tag x
# 8-frame ModeFull capture.
BENCH_FILTER_render   = BenchmarkRender

# Redirect instead of piping through tee so a bench failure stops make.
# -benchmem keeps B/op and allocs/op in the archived JSON, which is what
# pins the "metrics on = zero extra allocations" budget over time.
bench.txt:
	$(GO) test -bench=. -benchtime=1x -benchmem ./... > $@
	@cat $@

BENCH_%.json: bench.txt
	grep -E '^(goos|goarch|cpu|pkg):|^$(BENCH_FILTER_$*)' bench.txt \
		| $(GO) run ./cmd/benchjson > $@

bench-json: $(BENCH_FAMILIES:%=BENCH_%.json)

# Replay the checked-in golden trace (blocking in CI); regenerate it after
# an intentional demodulator behavior change with:
#   go test ./internal/pipeline -run TestGoldenTraceReplay -update-golden
golden:
	$(GO) test -run 'TestGoldenTraceReplay' -count=1 -v ./internal/pipeline

# Short fuzz session over the trace codec.
fuzz:
	$(GO) test -run FuzzTraceRoundTrip -fuzz FuzzTraceRoundTrip -fuzztime 30s ./internal/trace

# Scheduled CI fuzz sweep: ~7.5 minutes split across the six codec/datapath
# fuzzers (go test allows one -fuzz target per invocation). FuzzChunkRead
# covers the framing shared by traces, the wire and flight dumps; the trace
# and wire fuzzers cover their payload codecs. FuzzFIRApply holds the
# interleaved FIR kernel bit-exact to the one-output-at-a-time reference
# loop.
FUZZ_TIME ?= 75s
fuzz-sweep:
	$(GO) test -run FuzzChunkRead -fuzz FuzzChunkRead -fuzztime $(FUZZ_TIME) ./internal/chunk
	$(GO) test -run FuzzTraceRoundTrip -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZ_TIME) ./internal/trace
	$(GO) test -run FuzzWireFrame -fuzz FuzzWireFrame -fuzztime $(FUZZ_TIME) ./internal/server
	$(GO) test -run FuzzCommandRoundTrip -fuzz FuzzCommandRoundTrip -fuzztime $(FUZZ_TIME) ./internal/mac
	$(GO) test -run FuzzFxpOps -fuzz FuzzFxpOps -fuzztime $(FUZZ_TIME) ./internal/fxp
	$(GO) test -run FuzzFIRApply -fuzz FuzzFIRApply -fuzztime $(FUZZ_TIME) ./internal/dsp

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

ci: build vet lint fmt-check test-short examples golden
