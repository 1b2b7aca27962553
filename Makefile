# One-command verify + bench harness. `make ci` is what the tier-1
# gate runs in spirit: formatting, vet, the docs lint, the full test
# suite under the race detector, a single pass of every benchmark, the
# golden gate (`simctl run -all -quick`: every scenario output linted and
# byte-identical to its checked-in BENCH file), and the benchmark
# module's own vet and tests (bench-check).

GO ?= go
PERFCOUNT ?= 5
# Per-fuzzer budget for `make fuzz`; ci runs a short pass.
FUZZTIME ?= 10s
# Combined statement-coverage floor for internal/serve + internal/scenario
# (recorded at 87.9% when the cache/fuzz/health test layer landed; the
# margin absorbs counting noise, not deleted tests).
COVERFLOOR ?= 86.0

.PHONY: ci fmt vet test race bench golden bench-json bench-check trace-smoke perfbench build docs fuzz fuzz-short cover

ci: fmt vet docs race bench golden trace-smoke fuzz-short cover bench-check

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark (the simulator-performance set).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Golden gate and registry smoke: run every registered scenario at
# quick scale into a temporary directory (a scenario that breaks fails
# right here), validate every file it writes with jsonlint, and cmp each
# against the checked-in BENCH_<scenario>.json. Every scenario is
# deterministic, so there is no skip list: a difference, a file with no
# checked-in copy, or a checked-in BENCH file that no scenario writes
# fails. A change that means to move a modeled output regenerates the
# files with `make bench-json` and says why.
golden:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/simctl run -all -quick -json -out "$$dir" > /dev/null || exit 1; \
	set -- "$$dir"/BENCH_*.json; \
	[ -e "$$1" ] || { echo "golden: simctl wrote no BENCH files"; exit 1; }; \
	$(GO) run ./cmd/jsonlint "$$@" > /dev/null || exit 1; \
	fail=0; \
	for f in "$$@"; do \
		name="$$(basename "$$f")"; \
		if [ ! -e "$$name" ]; then echo "golden: $$name has no checked-in copy"; fail=1; \
		elif ! cmp -s "$$f" "$$name"; then echo "golden: $$name differs from the checked-in copy"; fail=1; fi; \
	done; \
	for name in BENCH_*.json; do \
		[ -e "$$name" ] || continue; \
		[ -e "$$dir/$$name" ] || { echo "golden: $$name is checked in but no scenario writes it"; fail=1; }; \
	done; \
	if [ $$fail = 0 ]; then echo "golden: $$# files byte-identical"; fi; \
	exit $$fail

# Regenerate the checked-in golden files: run every registered scenario
# at quick scale through simctl, write each one's sections as
# BENCH_<scenario>.json in the repo root, and validate every emitted
# file in one jsonlint glob invocation. Not part of ci (golden runs the
# same command into a temporary directory and adds the cmp).
bench-json:
	@touch .bench-stamp
	$(GO) run ./cmd/simctl run -all -quick -json > /dev/null
	@new="$$(find . -maxdepth 1 -name 'BENCH_*.json' -newer .bench-stamp)"; \
	rm -f .bench-stamp; \
	if [ -z "$$new" ]; then \
		echo "bench-json: simctl run -all wrote no BENCH_*.json files"; exit 1; \
	fi
	$(GO) run ./cmd/jsonlint BENCH_*.json

# The repo benchmark (bench/, declared by BENCHMARK.json) is its own Go
# module, so the root `go build ./...` and `go test ./...` never compile
# it: a serve API change that breaks the benchmark fails here instead.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Observability smoke: run the traced failure-recovery cell (cut to the
# crash-restart plan), export the Chrome trace and the series CSV, and
# validate the trace's event grammar with jsonlint (well-formed events,
# per-track timestamp order, matched span pairs). This is the CI proof
# that `simctl run <name> -trace out.json` yields a Perfetto-loadable
# file showing the crash/ejection/retry/readmission story.
trace-smoke:
	$(GO) run ./cmd/simctl run failure-recovery -quick -p plans=crash-restart \
		-trace .trace-smoke.json -series .trace-smoke.csv > /dev/null
	$(GO) run ./cmd/jsonlint .trace-smoke.json
	@rm -f .trace-smoke.json .trace-smoke.csv

# Simulator-performance benchmarks (engine hot path, fleet stepping,
# sweep fan-out) and the functional Shift engine unit (tensor kernels and
# collectives) with allocation stats, repeated PERFCOUNT times so the
# output feeds benchstat for before/after comparisons:
#   make perfbench > new.txt   (and on the baseline commit > old.txt)
#   benchstat old.txt new.txt
perfbench:
	$(GO) test -run xxx -bench 'BenchmarkSimulator_|BenchmarkFunctional_' -benchmem -count $(PERFCOUNT) .

# Native fuzzers over the scenario registry's input surface (simctl's
# -p key=value parsing): each target runs FUZZTIME. The seeded corpora
# live in internal/scenario/testdata/fuzz and also run as plain tests
# under `go test`.
fuzz:
	$(GO) test -run xxx -fuzz '^FuzzParseValue$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run xxx -fuzz '^FuzzScenarioParse$$' -fuzztime $(FUZZTIME) ./internal/scenario

# The ci-speed fuzz pass: long enough to exercise the mutators past the
# seed corpus, short enough not to dominate the gate.
fuzz-short:
	@$(MAKE) --no-print-directory FUZZTIME=2s fuzz

# Combined statement coverage of the serving simulator and the scenario
# registry, enforced against the recorded floor so the property/fuzz
# test layer cannot silently rot.
cover:
	@$(GO) test -count=1 -coverprofile=.cover.out \
		-coverpkg=./internal/serve/...,./internal/scenario/... \
		./internal/serve/... ./internal/scenario/... > /dev/null
	@total="$$($(GO) tool cover -func=.cover.out | awk '/^total:/ {sub(/%/,"",$$NF); print $$NF}')"; \
	rm -f .cover.out; \
	echo "cover: $$total% of statements (floor $(COVERFLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERFLOOR)" 'BEGIN { exit (t+0 < f+0) }' || \
		{ echo "cover: $$total% fell below the $(COVERFLOOR)% floor"; exit 1; }

# Documentation lint: formatting, vet, and a package comment on every
# internal package (godoc's "Package <name> ..." convention).
docs: fmt vet
	@missing=""; for d in internal/*; do \
		grep -qs '^// Package ' $$d/*.go || missing="$$missing $$d"; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "missing package comment in:$$missing"; exit 1; \
	fi
	@echo "docs lint OK"
