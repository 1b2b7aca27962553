# One-command verify + bench harness. `make ci` is what the tier-1
# gate runs in spirit: formatting, vet, the docs lint, the full test
# suite under the race detector, a single pass of every benchmark, a
# run of every example program, the golden gate (`simctl run -all -quick`: every scenario output linted and
# byte-identical to its checked-in BENCH file), the benchmark module's
# own vet and tests (bench-check), and an arm64 build of the module
# (cross), which compiles the Go path of the assembly GEMM kernel.

GO ?= go
PERFCOUNT ?= 5
# Per-fuzzer budget for `make fuzz`; ci runs a short pass.
FUZZTIME ?= 10s
# Combined statement-coverage floor for internal/serve + internal/scenario
# (the cover target measured 94.8% before the lockstep fleet's plan step
# was shared with the engine loop, 95.4% after; the margin absorbs
# counting noise, not deleted tests).
COVERFLOOR ?= 92.0
# Combined statement-coverage floor for the functional engine: tensor,
# comm, parallel, kvcache, core and transformer (the cover target
# measured 95.7% once the forwards ran out of per-rank workspaces; the
# margin absorbs counting noise, not deleted tests).
COVERFLOOR_FN ?= 94.0

.PHONY: ci fmt vet test race bench examples golden bench-json bench-check trace-smoke trace-cmp perfbench build docs fuzz fuzz-short cover cross

ci: fmt vet docs race bench examples golden trace-smoke fuzz-short cover bench-check cross

build:
	$(GO) build ./...

# Keep the portable path compiling: internal/tensor runs its GEMM inner
# loops in AVX assembly on amd64 and in Go everywhere else, so build
# the module and vet the kernel package for arm64 too (the standard
# library builds from GOROOT, so this needs no download). On amd64,
# vet's asmdecl pass checks the assembly frames.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor

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

# Run every example program end to end (build and vet only compile
# them): a non-zero exit fails.
examples:
	@for d in examples/*/; do \
		$(GO) run ./$$d > /dev/null || { echo "examples: $$d failed"; exit 1; }; \
	done; echo "examples: all ran"

# Golden gate and registry smoke: run every registered scenario at
# quick scale into a temporary directory (a scenario that breaks fails
# right here), validate every file it writes with jsonlint, and cmp each
# against the checked-in BENCH_<scenario>.json. Every scenario is
# deterministic, so there is no skip list: a difference, a file with no
# checked-in copy, or a checked-in BENCH file that no scenario writes
# fails; a difference also prints the first 40 lines of `diff -u
# checked-in new`. A change that means to move a modeled output regenerates the
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
		elif ! cmp -s "$$f" "$$name"; then echo "golden: $$name differs from the checked-in copy"; \
			diff -u "$$name" "$$f" | head -n 40; fail=1; fi; \
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
# file showing the crash/ejection/retry/readmission story. The same
# check runs on a geo trace (outage-spillover's dark spill-over cell)
# and a plain-cluster trace (fig14's first cell), so each kind of
# deployment runCells traces is covered.
trace-smoke:
	$(GO) run ./cmd/simctl run failure-recovery -quick -p plans=crash-restart \
		-trace .trace-smoke.json -series .trace-smoke.csv > /dev/null
	$(GO) run ./cmd/simctl run outage-spillover -quick -trace .trace-smoke-geo.json > /dev/null
	$(GO) run ./cmd/simctl run fig14 -quick -p rates=1 -trace .trace-smoke-cluster.json > /dev/null
	$(GO) run ./cmd/jsonlint .trace-smoke.json .trace-smoke-geo.json .trace-smoke-cluster.json
	@rm -f .trace-smoke.json .trace-smoke.csv .trace-smoke-geo.json .trace-smoke-cluster.json

# Behaviour check against a git revision (REV, default HEAD, so on an
# uncommitted change it compares against the last commit): build simctl
# from `git archive REV` in a temporary directory and from the working
# tree, run every scenario the working tree registers at -quick with
# -trace and -series, one scenario per run, and cmp each run's stdout,
# stderr, trace and series files. Scenarios that run no simulator write
# no trace or series file on either side. Any difference, or a run that
# fails on one side only, fails. Not part of ci:
#   make trace-cmp REV=<commit>
REV ?= HEAD
trace-cmp:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	mkdir "$$dir/src" "$$dir/old" "$$dir/new"; \
	git archive "$(REV)" | tar -x -C "$$dir/src" || exit 1; \
	(cd "$$dir/src" && $(GO) build -o "$$dir/simctl-old" ./cmd/simctl) || exit 1; \
	$(GO) build -o "$$dir/simctl-new" ./cmd/simctl || exit 1; \
	names="$$("$$dir/simctl-new" list | awk '/^  [^ ]/ {print $$1}')"; \
	[ -n "$$names" ] || { echo "trace-cmp: simctl list named no scenario"; exit 1; }; \
	fail=0; n=0; \
	for name in $$names; do \
		n=$$((n+1)); \
		for side in old new; do \
			out="$$dir/$$side/$$name"; \
			( cd "$$dir/$$side" && "$$dir/simctl-$$side" run "$$name" -quick \
				-trace "$$name.trace.json" -series "$$name.series.csv" \
				> "$$out.stdout" 2> "$$out.stderr"; echo "exit $$?" > "$$out.exit" ); \
		done; \
	done; \
	for f in "$$dir"/old/* "$$dir"/new/*; do \
		name="$$(basename "$$f")"; \
		[ -e "$$dir/old/$$name" ] || { echo "trace-cmp: $$name only at the working tree"; fail=1; continue; }; \
		[ -e "$$dir/new/$$name" ] || { echo "trace-cmp: $$name only at $(REV)"; fail=1; continue; }; \
		case "$$f" in "$$dir"/new/*) continue;; esac; \
		cmp -s "$$dir/old/$$name" "$$dir/new/$$name" || { echo "trace-cmp: $$name differs from $(REV)"; fail=1; }; \
	done; \
	if [ $$fail = 0 ]; then \
		echo "trace-cmp: $$n scenarios, $$(ls "$$dir/new" | wc -l) files byte-identical to $(REV)"; fi; \
	exit $$fail

# Simulator-performance benchmarks (engine hot path, fleet stepping,
# sweep fan-out) and the functional Shift engine unit (tensor kernels and
# collectives) with allocation stats, repeated PERFCOUNT times so the
# output feeds benchstat for before/after comparisons:
#   make perfbench > new.txt   (and on the baseline commit > old.txt)
#   benchstat old.txt new.txt
perfbench:
	$(GO) test -run xxx -bench 'BenchmarkSimulator_|BenchmarkFunctional_' -benchmem -count $(PERFCOUNT) .

# Native fuzzers over the scenario registry's input surface (simctl's
# -p key=value parsing), over the parallel layout space (q heads, KV
# heads, SP, TP), over the GEMM kernel's inner loops (output width
# and operand bits, assembly against the Go loops) and over the KV
# cache's calls (against a map-of-slices model): each target runs
# FUZZTIME. Minimizing each new interesting input is capped at 100
# executions: with go's default 60 s minimization budget, FuzzMatMulKernel
# spent most of a 2 s pass minimizing and fuzzed at 0 execs/s by the end.
# The seeded corpora live in the testdata/fuzz directories of
# internal/scenario, internal/parallel, internal/tensor and
# internal/kvcache and also run
# as plain tests under `go test`.
fuzz:
	$(GO) test -run xxx -fuzz '^FuzzParseValue$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/scenario
	$(GO) test -run xxx -fuzz '^FuzzScenarioParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/scenario
	$(GO) test -run xxx -fuzz '^FuzzLayout$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/parallel
	$(GO) test -run xxx -fuzz '^FuzzMatMulKernel$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/tensor
	$(GO) test -run xxx -fuzz '^FuzzCache$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/kvcache

# The ci-speed fuzz pass: long enough to exercise the mutators past the
# seed corpus, short enough not to dominate the gate.
fuzz-short:
	@$(MAKE) --no-print-directory FUZZTIME=2s fuzz

# Combined statement coverage, enforced against a recorded floor per
# figure so the property/fuzz test layer cannot silently rot: one figure
# for the serving simulator and the scenario registry, one for the
# functional engine (kernels, collectives, forwards, KV cache).
COVER_SERVE := ./internal/serve/... ./internal/scenario/...
COVER_FN := ./internal/tensor/... ./internal/comm/... ./internal/parallel/... \
	./internal/kvcache/... ./internal/core/... ./internal/transformer/...
comma := ,
space := $(subst ,, )

# cover-gate runs the tests of packages $(2) measuring coverage over
# them together, prints the total as figure $(1), and fails below $(3)%.
define cover-gate
	@$(GO) test -count=1 -coverprofile=.cover.out \
		-coverpkg=$(subst $(space),$(comma),$(strip $(2))) $(2) > /dev/null
	@total="$$($(GO) tool cover -func=.cover.out | awk '/^total:/ {sub(/%/,"",$$NF); print $$NF}')"; \
	rm -f .cover.out; \
	echo "cover $(1): $$total% of statements (floor $(3)%)"; \
	awk -v t="$$total" -v f="$(3)" 'BEGIN { exit (t+0 < f+0) }' || \
		{ echo "cover $(1): $$total% fell below the $(3)% floor"; exit 1; }
endef

cover:
	$(call cover-gate,serve+scenario,$(COVER_SERVE),$(COVERFLOOR))
	$(call cover-gate,functional engine,$(COVER_FN),$(COVERFLOOR_FN))

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
