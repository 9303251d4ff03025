# BeCAUSe build targets. The module has no dependencies beyond the Go
# standard library, so every target is just the toolchain.

GO ?= go

.PHONY: all build test tier1 vet perfbench-vet lint becauselint wire-lock race verify bench bench-all fuzz serve-smoke scenario-matrix scenario-update clean

# Short fuzzing budget per target; raise for a real fuzzing session, e.g.
#   make fuzz FUZZTIME=10m
FUZZTIME ?= 15s

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# tier1 is the repository's baseline health check (see ROADMAP.md).
tier1: build test

vet:
	$(GO) vet ./...

# perfbench is a nested module (its own go.mod), so ./... never compiles
# it; vetting it from its directory builds it against this module's
# internal APIs, which it imports.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

# lint runs every project-specific analyzer (`go run ./cmd/becauselint
# -list` describes them). Exit 1 on any finding.
lint:
	$(GO) run ./cmd/becauselint ./...

# becauselint builds the standalone linter binary into bin/.
becauselint:
	$(GO) build -o bin/becauselint ./cmd/becauselint

# wire-lock regenerates wire.lock from the current JSON wire surface.
# Run after any schema change; the regeneration refuses non-additive
# changes until SchemaVersion is bumped, and CI fails if the committed
# lock is stale.
wire-lock:
	$(GO) run ./cmd/becauselint -write-wire-lock

# race runs the whole suite under the race detector, then stresses the
# worker-pool and reproducibility tests, and the lint driver's repeated
# Runs over one cached load, twice over (-count=2 defeats the test cache
# and doubles the interleavings the detector sees).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/par ./internal/core ./internal/experiment ./internal/lint

# verify is the pre-merge gate: static analysis (vet, perfbench vet and
# becauselint), the race detector and the plain test suite.
verify: vet perfbench-vet lint race tier1

# bench records the per-PR benchmark trajectory: the headline benchmarks
# (engine, public API, campaign simulation, lint, hotpath kernels and the
# campaign write path's queue, encoder and MRT writer) run once and their
# numbers land as a machine-readable JSON document (bench-latest.json;
# copy it to the next BENCH_PR<n>.json to commit a data point, and compare
# with scripts/bench_compare.sh). Tune with BENCHTIME=2s / BENCH_OUT=file.
# bench-all runs every root benchmark the classic way, without recording.
bench:
	sh scripts/bench_trajectory.sh

bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ .

# serve-smoke exercises the becaused daemon end to end: ephemeral port,
# real inference over HTTP, cache hit on repeat, SIGTERM drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# fuzz gives each native fuzz target a short budget (the seed corpora plus
# any saved crashers always run as part of `make test` regardless).
fuzz:
	$(GO) test ./internal/bgp -run=^$$ -fuzz='^FuzzDecodeUpdate$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mrt -run=^$$ -fuzz='^FuzzParseTableDump$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/collector -run=^$$ -fuzz='^FuzzReadMRT$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/scenario -run=^$$ -fuzz='^FuzzParseScenario$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/lint -run=^$$ -fuzz='^FuzzParseAllowDirective$$' -fuzztime=$(FUZZTIME)

# scenario-matrix runs the declarative scenario regression matrix: every
# corpus scenario under internal/scenario/testdata/scenarios is rendered
# against its checked-in golden and executed end to end (campaign,
# inference, expectation checks). scenario-update regenerates the goldens
# after a reviewed simulator change; review the diff like code.
scenario-matrix:
	$(GO) test ./internal/scenario -count=1 -v -run '^(TestGolden|TestRenderWorkersInvariant|TestScenarioMatrix)$$'

scenario-update:
	$(GO) test ./internal/scenario -run '^TestGolden$$' -update

clean:
	$(GO) clean ./...
