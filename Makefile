# Tier-1 verification plus the CI gate. Experiment tests run in Quick mode
# internally (small payloads), and `ci` adds -short to skip the full
# registry sweeps, keeping the race-instrumented suite to a few minutes.
GO ?= go
# The toolchain's own gofmt, so the lint gate formats with the go in use.
GOFMT ?= $(shell $(GO) env GOROOT)/bin/gofmt

# Coverage floors for the packages guarding the mechanism abstraction,
# raised to the PR 5 baseline (core 82.0%, kobj 99.7% with the session
# and retire/reinit suites): `make cover` fails if a change lands code in
# core/kobj without tests pulling its weight.
COVER_CORE_MIN ?= 81.5
COVER_KOBJ_MIN ?= 99.0

# Staticcheck is optional (the build environment has no network): lint
# runs it only when the pinned version is already installed, so meslint
# stays the portable floor and staticcheck is extra signal on dev boxes
# and CI images that carry it.
STATICCHECK ?= staticcheck
STATICCHECK_VERSION ?= 2025.1

.PHONY: ci build vet lint bench-module test race bench perf-smoke fault-smoke fuzz-smoke cover

ci: build vet lint bench-module race perf-smoke fault-smoke cover

# Static contract enforcement: every main-module Go file must be gofmt
# clean (testdata/ fixtures, the vendored third_party/ tree and the bench/
# module excluded), the meslint vettool checks the determinism,
# pool-hygiene, mechanism-table and allocfree contracts (see
# internal/analysis/doc.go for the invariants and the //lint:allow /
# //mes:* directives), and every vendored package must be in the
# module's dependency closure (tests included), so third_party/ holds
# only code the build compiles.
lint:
	@unformatted="$$(find . -name '*.go' -not -path './third_party/*' -not -path './bench/*' \
		-not -path '*/testdata/*' | xargs $(GOFMT) -l)" || \
		{ echo "lint: $(GOFMT) -l failed"; exit 1; }; \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) build -o bin/meslint ./cmd/meslint
	$(GO) vet -vettool=$(abspath bin/meslint) ./...
	@closure="$$($(GO) list -deps -test ./...)" && \
		vendored="$$($(GO) -C third_party/golang.org/x/tools list ./...)" || \
		{ echo "lint: go list failed"; exit 1; }; \
	extra="$$(printf '%s\n' "$$vendored" | grep -vxF -e "$$closure")"; \
	if [ -n "$$extra" ]; then \
		echo "lint: third_party holds packages the module never builds (delete them and update third_party/README.md):"; \
		echo "$$extra"; exit 1; \
	fi
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		ver="$$($(STATICCHECK) -version 2>/dev/null)"; \
		case "$$ver" in \
		*$(STATICCHECK_VERSION)*) echo "$(STATICCHECK) ./..."; $(STATICCHECK) ./... ;; \
		*) echo "lint: skipping staticcheck: installed version '$$ver' is not the pinned $(STATICCHECK_VERSION)" ;; \
		esac; \
	else \
		echo "lint: skipping staticcheck: not installed (pinned version $(STATICCHECK_VERSION))"; \
	fi

# bench/ is a module of its own, so ./... above never reaches it: vet it
# with meslint and run its short tests, so a change that breaks the
# benchmark's build or its workloads fails CI.
bench-module: lint
	$(GO) -C bench vet -vettool=$(abspath bin/meslint) ./...
	$(GO) -C bench test -short ./...

# Allocation and work-count regressions on the tracked hot paths fail
# fast, and never flake: the event core must stay at 0 allocs/event, a
# pooled one-shot transmission within its 6-allocation budget (tracing it
# adds at most 14 more) and a steady-state session trial at 0
# allocations. The work-count gates compare exact, deterministic counts:
# the raw event core's switches and events pushed, and per mechanism the
# switches, symbol windows, events pushed and trace entries of a fixed
# trial batch. Wall clock is left to bench/, which reports it with its
# spread.
perf-smoke:
	$(GO) test -count=1 -run 'TestKernelEventAllocsAmortizedZero|TestBenchLoadWorkCounts' ./internal/sim
	$(GO) test -count=1 -run 'TestTransmissionAllocBudget|TestTracedTransmissionAllocBudget' .
	$(GO) test -count=1 -run 'TestSessionAllocsSteadyStateZero|TestSwitchesPerBitBudget' ./internal/core

# Fault-matrix smoke (PR 10): the faultsweep experiment — fault rate ×
# mechanism × recovery mode, nonzero rates included — must complete in
# quick mode (failed trials are data to it, so completing proves the
# crash/recovery plumbing end to end), and a -faultrate 0 run of the
# full quick registry must render byte-identical to a run without the
# flag: the disabled fault plane is free. (A nonzero *global* rate is
# exercised by the faultsweep's own cells; applying one to the whole
# registry legitimately kills non-recovering experiments, which mesbench
# reports and skips, so it gates nothing.)
fault-smoke:
	$(GO) build -o bin/mesbench ./cmd/mesbench
	bin/mesbench -exp faultsweep -quick > /dev/null
	@a="$$(bin/mesbench -all -quick 2>&1)"; \
	b="$$(bin/mesbench -all -quick -faultrate 0 -faultseed 99 2>&1)"; \
	if [ "$$a" != "$$b" ]; then \
		echo "fault-smoke: faultrate=0 registry diverged from the plain registry"; exit 1; \
	fi; \
	echo "fault-smoke: faultrate=0 registry byte-identical"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test (and TestMain) execution order so
# inter-test state dependencies surface instead of hiding behind
# source order; the seed is printed on failure for replay.
race:
	$(GO) test -race -short -shuffle=on ./...

# Ten seconds of coverage-guided fuzzing per codec target (each -fuzz run
# must name exactly one target). The checked-in seed corpus under
# internal/codec/testdata/fuzz replays on every plain `go test` as well.
fuzz-smoke:
	$(GO) test -fuzz=FuzzPackUnpack -fuzztime=10s -run '^$$' ./internal/codec
	$(GO) test -fuzz=FuzzRepetitionDecode -fuzztime=10s -run '^$$' ./internal/codec

# Line-coverage gate for the mechanism-abstraction packages, enforced by
# cmd/meslint/covergate: fails on FAIL lines in the test output, on a
# missing summary line (a run that died before reporting must not pass
# vacuously), and on a floor breach. stderr is folded in so build
# failures surface as FAIL lines instead of vanishing down the pipe.
cover:
	@$(GO) build -o bin/covergate ./cmd/meslint/covergate
	@$(GO) test -count=1 -cover ./internal/core ./internal/kobj 2>&1 | \
		bin/covergate -floor mes/internal/core=$(COVER_CORE_MIN) -floor mes/internal/kobj=$(COVER_KOBJ_MIN)

# One pass over every benchmark, including BenchmarkSweepParallel's
# workers=1 vs workers=N speedup comparison.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./internal/sim ./internal/detect .
