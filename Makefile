GO ?= go

# Committed coverage floor for `make cover` (percent of statements across
# ./..., including the uncovered cmd/ and examples/ mains). Raise it as
# coverage grows; never lower it to make a PR pass.
COVER_MIN ?= 71.0
COVER_PROFILE ?= coverage.out

# Event count per partition for the bench-json trajectory probe. The nightly
# workflow raises it 10x to catch regressions that only show at scale.
BENCH_EVENTS ?= 100000

# Per-target budget for the fuzz smoke in `make fuzz-smoke`. CI runs the
# default; raise it locally for deeper exploration.
FUZZTIME ?= 10s

# Wall-clock budget for the simlint suite inside `make check`: the lint gate
# must never quietly eat the edit-compile loop. `make lint` itself runs
# unbudgeted (first runs pay `go list -export` compilation of the tree).
LINT_BUDGET ?= 120s

# Campaign worker goroutines for the sweep targets (0 = NumCPU). The report
# bytes are identical at any value — only wall-clock time changes.
CAMPAIGN_WORKERS ?= 0

.PHONY: build test vet fmt-check lint race check cover bench bench-json perfbench-test fuzz-smoke test-slabdebug campaign-smoke campaign-nightly

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packet-lifecycle diagnostic build: -tags slabdebug arms the slab
# registry (use-after-release and double-release panics name their Get and
# Release call sites). The whole tree must pass under the tag — the registry
# may change allocation counts but never simulation results.
test-slabdebug:
	$(GO) test -tags slabdebug ./...

vet:
	$(GO) vet ./...

# Hygiene gate: fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# simlint: the custom go/analysis suite enforcing the determinism and
# scheduler contracts (see internal/analysis and DESIGN.md). Covers test
# files; zero unsuppressed findings is a merge gate. Writes the
# machine-readable findings report (suppressed findings included), which CI
# uploads.
lint:
	$(GO) run ./cmd/simlint -json LINT_findings.json ./...

# Race-check the concurrency-bearing packages (the parallel engine and the
# partitioned cluster). Much faster than racing the whole tree; `make check`
# still races everything.
race:
	$(GO) test -race ./internal/sim ./internal/core

# Short fuzz pass over the hardened input surfaces: the CLI fault-spec
# grammar and the Chrome-trace encoder. Go fuzzes one target per invocation,
# so each runs separately.
fuzz-smoke:
	$(GO) test ./internal/fault -run '^$$' -fuzz FuzzParseSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzChromeTraceJSON -fuzztime $(FUZZTIME)

# The full gate: vet + simlint + race-enabled tests + fuzz smoke across every
# package.
check:
	$(GO) vet ./...
	$(GO) run ./cmd/simlint -budget $(LINT_BUDGET) ./...
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke

# Coverage gate: writes $(COVER_PROFILE) (uploaded by CI next to
# BENCH_results.json) and fails if total statement coverage drops below the
# committed COVER_MIN floor.
cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) ./...
	@total="$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit !(t+0 < min+0) }' && \
		{ echo "COVERAGE REGRESSION: $$total% < $(COVER_MIN)%"; exit 1; } || true

# CI campaign gate: the 8-cell smoke sweep (topology × kernel × fault draw),
# written as CAMPAIGN_results.json and schema-validated by the Go validator.
# Byte-identical at any CAMPAIGN_WORKERS value — the determinism contract
# internal/campaign tests at workers 1/2/NumCPU.
campaign-smoke:
	$(GO) run ./cmd/campaign run -preset smoke -workers $(CAMPAIGN_WORKERS) -q -o CAMPAIGN_results.json
	$(GO) run ./cmd/diablo validate CAMPAIGN_results.json

# Full-scale nightly sweep: 240 cells of 248–496 nodes each.
campaign-nightly:
	$(GO) run ./cmd/campaign run -preset nightly -workers $(CAMPAIGN_WORKERS) -q -o CAMPAIGN_results.json
	$(GO) run ./cmd/diablo validate CAMPAIGN_results.json

bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem .

# The benchmark module (perfbench/, its own go.mod with `replace diablo =>
# ../`) is outside ./..., so `make test` never builds it. Test it in the
# environment perfbench/run.py builds it with, so a change to an API it
# calls fails here rather than in the benchmark.
perfbench-test:
	cd perfbench && GOFLAGS= GOTOOLCHAIN=local GOPROXY=off $(GO) test ./...

# Machine-readable performance trajectory: runs the §5 engine-comparison
# probe, writes BENCH_results.json plus a before/after BENCH_compare.json,
# and fails if sequential throughput regresses >20% against the committed
# bench_baseline.json or allocs/event rises more than the slack over it.
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_results.json -baseline bench_baseline.json -events $(BENCH_EVENTS)
