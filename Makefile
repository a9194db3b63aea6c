GO ?= go

.PHONY: build test vet race lint-programs vet-analyzers taint-report staticcheck govulncheck benchmark-test design-cap check loc bench chaos soak replchaos fuzz

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

# design-cap fails when DESIGN.md grows past DESIGN_MAX_LINES: the document
# is rewritten in place, layer by layer, and CHANGES.md holds the history.
DESIGN_MAX_LINES = 1519
design-cap:
	@n=$$(wc -l < DESIGN.md); test $$n -le $(DESIGN_MAX_LINES) || { echo "DESIGN.md has $$n lines, over its $(DESIGN_MAX_LINES)-line cap"; exit 1; }

check: design-cap vet lint-programs vet-analyzers race staticcheck govulncheck benchmark-test

# loc reports the net line delta of the working tree against BASE (a commit;
# default the parent), untracked files included, split the way ROADMAP aim 2
# asks for it: Go code of this module and benchmark/, its tests and fixtures
# (every file under a testdata/ directory), everything under tools/, and the
# Markdown documents — plus the non-test Go lines, tools/ ones included, of
# each directory named in PKGS (`.` names the root package, the files without
# a slash; a directory counts its subdirectories), or of each changed
# directory when PKGS is empty. Renames count as a delete plus an add, so
# they net to zero. Nothing is written to the index.
BASE ?= HEAD~1
PKGS ?=
LOC_PATHS = '*.go' '*.md' '*/testdata/*'
loc:
	@{ git diff --numstat --no-renames $(BASE) -- $(LOC_PATHS); \
	  git ls-files --others --exclude-standard -- $(LOC_PATHS) | while IFS= read -r f; do \
		printf '%s\t0\t%s\n' "$$(grep -c '' "$$f")" "$$f"; done; } | sort -t "$$(printf '\t')" -k3,3 | \
	awk -F '\t' -v pkgs='$(PKGS)' ' \
		BEGIN { np = split(pkgs, pkg, " ") } \
		{ d = $$3 ~ /\.md$$/; t = $$3 ~ /(_test\.go|\/testdata\/.*)$$/; \
		  b = d ? "docs" : $$3 ~ /^tools\// ? "tools/" : t ? "test" : "non-test"; add[b] += $$1; del[b] += $$2 } \
		d || t { next } \
		np == 0 { dir = $$3; if (!sub(/\/[^\/]*$$/, "", dir)) dir = "."; if (!(dir in add)) dirs = dirs " " dir; \
		  add[dir] += $$1; del[dir] += $$2 } \
		{ for (i = 1; i <= np; i++) if (pkg[i] == "." ? $$3 !~ /\// : index($$3, pkg[i] "/") == 1) { add[pkg[i]] += $$1; del[pkg[i]] += $$2 } } \
		END { n = split("non-test" (np ? " " pkgs : dirs) " test tools/ docs", order, " "); \
		  for (i = 1; i <= n; i++) { b = order[i]; printf "%-22s +%-5d -%-5d net %+d\n", b, add[b], del[b], add[b] - del[b] } }'

# fuzz runs the fuzzer itself, FUZZTIME per target (default 10s), one target
# after another, on the two byte-level parsers a request body reaches — the
# /reason decoder and fact loader (FuzzReasonFacts) and the CSV intake,
# against encoding/csv, with its group read against ReadCSV followed by the
# Select /explain makes (FuzzReadCSV) — on the release writer every
# anonymized CSV leaves through (FuzzWriteCSV), on the group index's
# row-operation tape, the one that
# drives its compaction (FuzzGroupIndexRowOps), on the journal's line parser
# against encoding/json (FuzzParseLine) and its reader over arbitrary files
# (FuzzReadPrefix), on the JSON grammar and string rule the decoders share,
# against encoding/json (FuzzValid), on the stream replay's batch and
# withdraw decoders, against json.Unmarshal (FuzzStreamPayload), on the
# order the aggregate operator folds in, against Key() byte order
# (FuzzFoldRank), and on the program text a /reason or /lint body carries:
# the parser, against its own printer (FuzzParse), and the lint, against the
# engine's stratification (FuzzLintNoPanic), and on the engine's model of
# random graph programs, against the reference chase
# (FuzzEngineMatchesReference). Their seed
# corpora already run as ordinary tests; a failing input found here is
# written under the package's testdata/fuzz.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./cmd/vadasad -run '^$$' -fuzz '^FuzzReasonFacts$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mdb -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mdb -run '^$$' -fuzz '^FuzzWriteCSV$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mdb -run '^$$' -fuzz '^FuzzGroupIndexRowOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzParseLine$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzReadPrefix$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/jsonscan -run '^$$' -fuzz '^FuzzValid$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -run '^$$' -fuzz '^FuzzStreamPayload$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/datalog -run '^$$' -fuzz '^FuzzFoldRank$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/datalog -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/datalog -run '^$$' -fuzz '^FuzzEngineMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/datalog/lint -run '^$$' -fuzz '^FuzzLintNoPanic$$' -fuzztime $(FUZZTIME)

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
# rejection, the HTTP failover path, and the recoveries whose journals load
# concurrently (standby mirrors, streams under a memory budget), at one and
# at four workers. The same tests gate inside `make check`; this target
# reruns them verbosely, the raw stream landing in replchaos.out for the CI
# artifact.
replchaos:
	$(GO) test -race -count=1 -cpu 1,4 -v \
		-run 'Repl|Failover|Promote|Fenc|Ship|Standby|Sync|Diverg|Epoch|Recover' \
		./internal/replica/ ./cmd/vadasad/ > replchaos.out 2>&1 || { cat replchaos.out; exit 1; }
	cat replchaos.out

# bench runs the tier-1 benchmark suite and records it as bench.json (see
# DESIGN.md "Benchmark record format"): standard columns plus the custom
# figure metrics (riskeval-ms/op, nulls/op, loss%/op), machine-readable for
# regression tracking. The raw stream lands in bench.out for inspection. Both
# are gitignored: a record to commit is named on the command line
# (`make bench BENCH_JSON=BENCH_<PR>.json`), so a plain run never rewrites one.
# GOMAXPROCS is pinned — allocation counts of the parallel engine paths
# depend on it, so a record must not inherit the shell's core count — and
# the stream opens with the commit it measured, which benchjson reads into
# the header.
BENCH_JSON ?= bench.json
bench:
	echo "commit: $$(git rev-parse --short HEAD)" > bench.out
	GOMAXPROCS=2 $(GO) test -bench=. -benchmem -run=^$$ ./... >> bench.out || { cat bench.out; exit 1; }
	cat bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) bench.out
