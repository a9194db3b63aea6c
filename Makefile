GO ?= go

.PHONY: build test vet race lint-programs vet-analyzers taint-report staticcheck govulncheck benchmark-test check loc bench chaos soak replchaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite (fault-injection tests included) under the race
# detector; the cancellation paths are only trustworthy if they are
# race-clean.
race:
	$(GO) test -race ./...

# lint-programs runs vadalint (internal/datalog/lint) over every Vadalog
# artifact the repo ships: the generated template library plus the .vada
# files under docs/programs and the clean corpus in internal/datalog/
# testdata/programs. Any error-severity diagnostic fails the build.
lint-programs:
	$(GO) run ./cmd/vadalint -library internal/programs internal/datalog/testdata docs/programs

# vet-analyzers builds the engine-invariant vet passes (tools/analyzers is
# a separate stdlib-only module), runs their own test suite, then applies
# them to this module through the `go vet -vettool` protocol.
vet-analyzers:
	cd tools/analyzers && $(GO) build -o vadavet ./cmd/vadavet && $(GO) test ./...
	$(GO) vet -vettool=$(abspath tools/analyzers/vadavet) ./...

# taint-report runs the conftaint confidentiality-flow analyzer through its
# own driver (bypassing go vet's result cache) and writes a machine-readable
# inventory — every finding plus every active //conftaint:ok waiver with its
# justification — to taint-report.json. Non-gating: the gate is conftaint
# inside vet-analyzers; this is the audit artifact a data officer reviews.
taint-report:
	cd tools/analyzers && $(GO) run ./cmd/taintreport -C $(abspath .) > $(abspath taint-report.json)
	cat taint-report.json

# The static analyzers are separate modules, not dependencies of this one
# (the repo stays stdlib-only). When the binaries are on PATH they run;
# otherwise the target notes the skip and succeeds, so `make check` works
# on a bare toolchain. CI installs pinned versions and therefore always
# runs both.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it pinned)"; \
	fi

# benchmark-test runs the request-level benchmark's own tests (benchmark/ is
# a nested module, invisible to `go test ./...` here): unit tests plus a ~5 s
# smoke run that builds vadasad and drives every workload once. It is part of
# check because the benchmark calls repository APIs — mdb.GroupIndex row
# operations, the stream and replica packages — and a change that breaks
# those calls must fail here, not in the acceptance driver.
benchmark-test:
	$(GO) test -C benchmark ./...

check: vet lint-programs vet-analyzers race staticcheck govulncheck benchmark-test

# loc reports the net Go line delta of the working tree against BASE (a
# commit; default the parent), split the way ROADMAP aim 2 asks for it: code
# of this module and benchmark/, its tests and fixtures, and everything under
# tools/ — plus the share of the first bucket that falls in each directory
# named in PKGS, the packages a round's shrink work is about. Renames count
# as a delete plus an add, so they net to zero.
BASE ?= HEAD~1
PKGS ?= cmd/vadasad
loc:
	@git diff --numstat --no-renames $(BASE) -- '*.go' | awk -v pkgs='$(PKGS)' ' \
		BEGIN { np = split(pkgs, pkg, " ") } \
		{ b = $$3 ~ /^tools\// ? "tools/" : $$3 ~ /(_test\.go|\/testdata\/.*)$$/ ? "test" : "non-test"; \
		  add[b] += $$1; del[b] += $$2 } \
		b == "non-test" { for (i = 1; i <= np; i++) if (index($$3, pkg[i] "/") == 1) { add[pkg[i]] += $$1; del[pkg[i]] += $$2 } } \
		END { n = split("non-test " pkgs " test tools/", order, " "); \
		  for (i = 1; i <= n; i++) { b = order[i]; printf "%-15s +%-5d -%-5d net %+d\n", b, add[b], del[b], add[b] - del[b] } }'

# chaos runs the process-level fault suite under the race detector: worker
# SIGKILL mid-lease, dropped/duplicated/truncated RPCs, torn journal tails
# and degraded-mode serving, asserting every recovery is bit-identical to
# the undisturbed control. The same tests gate inside `make check` (race;
# they skip only under -short); this target reruns them verbosely, the raw
# stream landing in chaos.out for the CI artifact.
chaos:
	$(GO) test -race -count=1 -v \
		-run 'Chaos|Fault|Degrad|Hedg|SpawnAndKill|TornJournal' \
		./internal/dist/ ./internal/stream/ ./cmd/vadasad/ > chaos.out 2>&1 || { cat chaos.out; exit 1; }
	cat chaos.out

# soak runs the long randomized schedules under the race detector: the
# stream's crash/fault schedule plus the replication primary-kill/promote-
# under-load schedule. Fresh seeds every run, SOAK_SECONDS of wall clock per
# test (default 60). Non-gating — a separate opt-in CI job with soak.out as
# the artifact; fixed seeds of both schedules gate in `make check`
# (TestChaosRandomized, TestReplChaosRandomized).
SOAK_SECONDS ?= 60
soak:
	VADASA_SOAK=1 VADASA_SOAK_SECONDS=$(SOAK_SECONDS) \
		$(GO) test -race -count=1 -v -run 'StreamSoak|ReplSoak' \
		./internal/stream/ ./internal/replica/ > soak.out 2>&1 || { cat soak.out; exit 1; }
	cat soak.out

# replchaos runs the replication fault suite under the race detector:
# primary SIGKILL between intent and publish followed by a fenced promotion,
# torn/duplicated ship frames, divergence detection, demoted-primary
# rejection, and the HTTP failover path. The same tests gate inside `make
# check`; this target reruns them verbosely, the raw stream landing in
# replchaos.out for the CI artifact.
replchaos:
	$(GO) test -race -count=1 -v \
		-run 'Repl|Failover|Promote|Fenc|Ship|Standby|Sync|Diverg|Epoch' \
		./internal/replica/ ./cmd/vadasad/ > replchaos.out 2>&1 || { cat replchaos.out; exit 1; }
	cat replchaos.out

# bench runs the tier-1 benchmark suite and records it as BENCH_18.json (see
# DESIGN.md "Benchmark record format"): standard columns plus the custom
# figure metrics (riskeval-ms/op, nulls/op, loss%/op), machine-readable for
# regression tracking. The raw stream lands in bench.out for inspection.
# GOMAXPROCS is pinned — allocation counts of the parallel engine paths
# depend on it, so a record must not inherit the shell's core count — and
# the stream opens with the commit it measured, which benchjson reads into
# the header.
BENCH_JSON ?= BENCH_18.json
bench:
	echo "commit: $$(git rev-parse --short HEAD)" > bench.out
	GOMAXPROCS=2 $(GO) test -bench=. -benchmem -run=^$$ ./... >> bench.out || { cat bench.out; exit 1; }
	cat bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) bench.out
