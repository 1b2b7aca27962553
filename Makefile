# One-command verify + bench harness. `make ci` is what the tier-1
# gate runs in spirit: formatting, vet, the docs lint, the full test
# suite under the race detector, a single pass of every benchmark, the
# golden gate (every deterministic scenario output byte-identical to its
# checked-in BENCH file), the scenario-registry smoke (`simctl run -all
# -quick`, via bench-json), and the benchmark module's own vet and
# tests (bench-check).

GO ?= go
PERFCOUNT ?= 5
# Per-fuzzer budget for `make fuzz`; ci runs a short pass.
FUZZTIME ?= 10s
# Combined statement-coverage floor for internal/serve + internal/scenario
# (recorded at 87.9% when the cache/fuzz/health test layer landed; the
# margin absorbs counting noise, not deleted tests).
COVERFLOOR ?= 86.0

.PHONY: ci fmt vet test race bench golden bench-json bench-check trace-smoke perfbench build docs fuzz fuzz-short cover

# golden runs before bench-json, which rewrites the checked-in files.
ci: fmt vet docs race bench golden bench-json trace-smoke fuzz-short cover bench-check

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

# One iteration of every table/figure benchmark (quick scale).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The scenarios whose BENCH files hold wall-clock measurements, which
# differ on every run; golden skips exactly these.
GOLDEN_SKIP := simulator-speed engine-hotpath trace-overhead simbench

# Golden gate: run every registered scenario at quick scale into a
# temporary directory and cmp each BENCH file it writes against the
# checked-in copy, skipping only the GOLDEN_SKIP wall-clock files. Any
# difference, or a file with no checked-in copy, fails. A change that
# means to move a modeled output regenerates the files with
# `make bench-json` and says why.
golden:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/simctl run -all -quick -json -out "$$dir" > /dev/null || exit 1; \
	fail=0; n=0; \
	for f in "$$dir"/BENCH_*.json; do \
		name="$$(basename "$$f")"; skip=0; \
		for s in $(GOLDEN_SKIP); do [ "$$name" = "BENCH_$$s.json" ] && skip=1; done; \
		[ $$skip = 1 ] && continue; \
		n=$$((n+1)); \
		cmp -s "$$f" "$$name" || { echo "golden: $$name differs from the checked-in copy"; fail=1; }; \
	done; \
	if [ $$n = 0 ]; then echo "golden: simctl wrote no BENCH files"; exit 1; fi; \
	if [ $$fail = 0 ]; then echo "golden: $$n files byte-identical"; fi; \
	exit $$fail

# Registry smoke + machine-readable sweep results: run every registered
# scenario at quick scale through simctl (a scenario that breaks — or a
# new experiment that forgets to register — fails CI right here), write
# each one's sections as BENCH_<scenario>.json, and validate every
# emitted file in one jsonlint glob invocation. The four suite
# scenarios (burstbench, clusterbench, geobench, simbench) regenerate
# the accumulating perf-trajectory files under their historical names.
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
# sweep fan-out) with allocation stats, repeated PERFCOUNT times so the
# output feeds benchstat for before/after comparisons:
#   make perfbench > new.txt   (and on the baseline commit > old.txt)
#   benchstat old.txt new.txt
perfbench:
	$(GO) test -run xxx -bench 'BenchmarkSimulator_' -benchmem -count $(PERFCOUNT) .

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
