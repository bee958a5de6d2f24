# Standard entry points; CI (.github/workflows/ci.yml) runs the same
# commands.

GO ?= go

.PHONY: check build vet fmtcheck lint lint-fix lint-sarif fixcheck test race fuzz benchcheck faultcheck obscheck schedcheck servecheck bench

# check is the full gate: build, vet, the gofmt gate, swlint, the
# autofix-idempotency gate, tests under the race detector, the native
# fuzz targets, the benchmark module's vet and tests, the
# fault-injection smoke matrix, the trace-export determinism check, the
# 4,096-rank scheduler gate, and the online-serving chaos scenario.
check: build vet fmtcheck lint fixcheck race fuzz benchcheck faultcheck obscheck schedcheck servecheck

build:
	$(GO) build ./...

# vet runs go vet for this host and again for arm64, so the files that
# build only off amd64 (internal/core's scan_other.go) keep compiling;
# on amd64 vet's asmdecl check also holds scan_amd64.s to its Go
# declarations.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# fmtcheck is the formatting gate: every Go file in the tree must be
# gofmt-clean. It lists the files that are not and fails; `gofmt -w`
# on them is the fix.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "fmtcheck: not gofmt-clean (run gofmt -w on these files):"; \
		echo "$$out"; \
		exit 1; \
	fi

lint:
	$(GO) run ./cmd/swlint -stats ./...

# lint-fix applies swlint's mechanical repairs (sorted-key map walks,
# %v → %w on error operands) in place, then re-checks.
lint-fix:
	$(GO) run ./cmd/swlint -fix ./...

# lint-sarif writes the findings as SARIF 2.1.0 for code-scanning
# upload; the report is written even when findings make the run fail.
lint-sarif:
	$(GO) run ./cmd/swlint -format sarif ./... > swlint.sarif; test $$? -le 1

# fixcheck is the autofix-idempotency gate: swlint -fix must be a
# no-op. A changed tree means a mechanical fix was committed unapplied
# (run `make lint-fix` and commit the result) or a fixer rewrites code
# it already fixed — either way the tree and the fixers have diverged.
# The git diff is snapshotted before and after so the gate also works
# on a dirty development tree; in CI's clean checkout this reduces to
# `git diff --exit-code`. swlint's own exit status is swallowed here
# (unfixable findings are the `lint` target's verdict); this gate only
# asserts that -fix left every tracked .go file byte-identical.
fixcheck:
	@git diff -- '*.go' > .fixcheck-before.diff
	$(GO) run ./cmd/swlint -fix ./... || true
	@git diff -- '*.go' > .fixcheck-after.diff
	@if ! cmp -s .fixcheck-before.diff .fixcheck-after.diff; then \
		echo "fixcheck: swlint -fix modified the tree; run 'make lint-fix' and commit:"; \
		diff .fixcheck-before.diff .fixcheck-after.diff; \
		rm -f .fixcheck-before.diff .fixcheck-after.diff; \
		exit 1; \
	fi
	@rm -f .fixcheck-before.diff .fixcheck-after.diff

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs every native fuzz target for FUZZTIME each, one at a time
# (go test -fuzz takes one target per run): the fault-plan grammar,
# swlint's suppression and baseline parsers, the nearest-centroid
# kernel, the collective rendezvous against its point-to-point
# reference, the model, binary-matrix and CSV loaders, the daemon's
# /v1/assign and /v1/ingest handlers, and obsdiff's export parser.
FUZZTIME ?= 10s

fuzz:
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzParsePlan$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lint -run '^$$' -fuzz '^FuzzParseIgnore$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lint -run '^$$' -fuzz '^FuzzParseBaseline$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzNearest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mpi -run '^$$' -fuzz '^FuzzCollectives$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzLoadCentroids$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzAssign$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzIngest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/profdiff -run '^$$' -fuzz '^FuzzParseObs$$' -fuzztime $(FUZZTIME)

# benchcheck vets and tests the benchmark (bench/, its own module, so
# `go test ./...` never reaches it). Its smoke test runs every workload
# at a small shape and checks the answers: l1-kernel and cpe-mesh
# against sequential Lloyd, serve-read's HTTP answers bit for bit.
benchcheck:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -race ./...

# bench runs the root paper-figure benchmarks and the internal/core
# kernels once each (their seeds are fixed in the *_test.go files), so
# a benchmark that stops compiling or starts failing fails the gate.
# It measures nothing worth comparing: perf claims are made with the
# repository benchmark (bench/, BENCHMARK.json), or with a package
# benchmark run at -count and -benchmem.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/core

# faultcheck runs the seeded fault matrix through the CLI: crash with
# checkpoint restart, crash with dropped shards, pure transient noise,
# a degraded fabric with a straggler, a whole-node loss, a Level-3
# crash before the first checkpoint, a Level-3 crash with dropped
# shards, a Level-3 restore (checkpoint gather, then the checkpoint
# re-striped from m'=8 to m'=4 over the survivors), faults under
# automatic level selection, and transient DMA and message faults on
# 16 ranks, where a retry total summed in the order ranks happen to
# retry would differ from run to run. Every scenario is deterministic
# (docs/FAULT_TOLERANCE.md): run() runs it with -summary twice under
# the default driver and once under the DES driver (-sched), and the
# three outputs must be byte-identical. Later flags win, so the
# Level-3/auto runs just override FAULTBASE's level. The recipe makes
# its temporary directory and removes it on exit, failed or not.
FAULTBASE = -dataset gauss -n 800 -d 8 -components 4 -level 1 -k 4 -nodes 2 -iters 10

faultcheck:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/swkmeans ./cmd/swkmeans; \
	run() { \
		echo faultcheck: "$$@"; \
		$$tmp/swkmeans -summary "$$@" > $$tmp/a.txt; \
		$$tmp/swkmeans -summary "$$@" > $$tmp/b.txt; \
		$$tmp/swkmeans -summary -sched "$$@" > $$tmp/c.txt; \
		cmp $$tmp/a.txt $$tmp/b.txt; cmp $$tmp/a.txt $$tmp/c.txt; \
	}; \
	run $(FAULTBASE) -faults "seed=7; crash=3@2e-5; msg=0.01; retries=32" -ckpt 2; \
	run $(FAULTBASE) -faults "crash=1@2e-5" -ckpt 2 -droplost; \
	run $(FAULTBASE) -faults "seed=11; dma=0.05; msg=0.05; retries=64"; \
	run $(FAULTBASE) -faults "link=*@0:1x4; slow=2x1.5"; \
	run $(FAULTBASE) -faults "crashnode=1@3e-5; hb=1e-4" -ckpt 3; \
	run $(FAULTBASE) -level 3 -mprime 4 -faults "seed=5; crash=5@2e-5; msg=0.01; retries=32" -ckpt 2; \
	run $(FAULTBASE) -level 3 -mprime 2 -faults "crash=3@2e-5" -ckpt 2 -droplost; \
	run $(FAULTBASE) -level 3 -mprime 8 -k 8 -faults "seed=5; crash=5@1.5e-4; msg=0.01; retries=32" -ckpt 1; \
	run $(FAULTBASE) -level 0 -faults "seed=9; crash=2@2e-5; dma=0.02; retries=32" -ckpt 2; \
	run -dataset gauss -n 8192 -d 16 -k 8 -nodes 4 -level 1 -iters 6 -faults "seed=11; dma=0.05; msg=0.05; retries=64"

# obscheck verifies the observability determinism contract end to end:
# the same seeded scenario run twice exports byte-identical Chrome
# trace and metrics files (docs/OBSERVABILITY.md), for a coarse Level-3
# run, a crash-recovery run, and the fine-grained CPE-level kernels:
# fine2's point-to-point min-reduce and slice combine, and fine1's and
# fine3's mesh allreduces (fine3 over two CGs, at d=8, where each CPE's
# stripe is 0 or 1 coordinates wide, and at d=100, 1 or 2 wide).
# Mode equivalence: the Level-3 run, the crash-recovery run and fine3
# over two CGs export the same profile and folded stacks from the
# span-retaining recorder as from the -rollup one.
# The final scenario is the scale gate: a 4,096-rank DES epoch under
# the rollup recorder exports its aggregate profile, folded stacks and
# aggregate Perfetto trace byte-identically twice, and cmd/obsdiff
# confirms zero deltas with exit 0. Its artifacts land in obscheck-out/
# (gitignored) for CI upload; the other files go to a temporary directory
# that the recipe makes and removes on exit, failed or not.
OBSBASE = $(GO) run ./cmd/swkmeans -dataset gauss -n 512 -d 8 -components 4 -k 4 -nodes 2 -iters 4
OBS4K = $(GO) run ./cmd/swkmeans -dataset imgnet -d 256 -stride 4096 -level 3 -k 2000 -nodes 1024 -mprime 128 -iters 1 -sched -rollup

obscheck:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; set -x; \
	$(OBSBASE) -level 3 -trace-out $$tmp/a.json -metrics-out $$tmp/a.jsonl -timeline; \
	$(OBSBASE) -level 3 -trace-out $$tmp/b.json -metrics-out $$tmp/b.jsonl -timeline; \
	cmp $$tmp/a.json $$tmp/b.json; \
	cmp $$tmp/a.jsonl $$tmp/b.jsonl; \
	$(OBSBASE) -level 1 -iters 10 -faults "seed=7; crash=3@2e-5" -ckpt 2 -trace-out $$tmp/fa.json; \
	$(OBSBASE) -level 1 -iters 10 -faults "seed=7; crash=3@2e-5" -ckpt 2 -trace-out $$tmp/fb.json; \
	cmp $$tmp/fa.json $$tmp/fb.json; \
	$(OBSBASE) -algo fine2 -mgroup 8 -trace-out $$tmp/c.json; \
	$(OBSBASE) -algo fine2 -mgroup 8 -trace-out $$tmp/d.json; \
	cmp $$tmp/c.json $$tmp/d.json; \
	$(OBSBASE) -algo fine1 -trace-out $$tmp/e1.json -metrics-out $$tmp/e1.jsonl; \
	$(OBSBASE) -algo fine1 -trace-out $$tmp/e2.json -metrics-out $$tmp/e2.jsonl; \
	cmp $$tmp/e1.json $$tmp/e2.json; \
	cmp $$tmp/e1.jsonl $$tmp/e2.jsonl; \
	$(OBSBASE) -algo fine3 -mprime 2 -trace-out $$tmp/g1.json -metrics-out $$tmp/g1.jsonl; \
	$(OBSBASE) -algo fine3 -mprime 2 -trace-out $$tmp/g2.json -metrics-out $$tmp/g2.jsonl; \
	cmp $$tmp/g1.json $$tmp/g2.json; \
	cmp $$tmp/g1.jsonl $$tmp/g2.jsonl; \
	$(OBSBASE) -algo fine3 -d 100 -mprime 2 -trace-out $$tmp/h1.json -metrics-out $$tmp/h1.jsonl; \
	$(OBSBASE) -algo fine3 -d 100 -mprime 2 -trace-out $$tmp/h2.json -metrics-out $$tmp/h2.jsonl; \
	cmp $$tmp/h1.json $$tmp/h2.json; \
	cmp $$tmp/h1.jsonl $$tmp/h2.jsonl; \
	modes() { \
		$(OBSBASE) "$$@" -profile-out $$tmp/ms.json -folded-out $$tmp/ms.txt; \
		$(OBSBASE) "$$@" -rollup -profile-out $$tmp/mr.json -folded-out $$tmp/mr.txt; \
		cmp $$tmp/ms.json $$tmp/mr.json; \
		cmp $$tmp/ms.txt $$tmp/mr.txt; \
	}; \
	modes -level 3; \
	modes -level 1 -iters 10 -faults "seed=7; crash=3@2e-5" -ckpt 2; \
	modes -algo fine3 -mprime 2; \
	mkdir -p obscheck-out; \
	$(OBS4K) -profile-out obscheck-out/profile-4k.json -folded-out obscheck-out/folded-4k.txt -trace-out obscheck-out/trace-agg-4k.json; \
	$(OBS4K) -profile-out $$tmp/p4k.json -folded-out $$tmp/f4k.txt -trace-out $$tmp/t4k.json; \
	cmp obscheck-out/profile-4k.json $$tmp/p4k.json; \
	cmp obscheck-out/folded-4k.txt $$tmp/f4k.txt; \
	cmp obscheck-out/trace-agg-4k.json $$tmp/t4k.json; \
	$(GO) run ./cmd/obsdiff obscheck-out/profile-4k.json $$tmp/p4k.json

# schedcheck is the discrete-event scheduler gate: a seeded 4,096-rank
# Figure 6b smoke run executes twice under the DES driver to
# byte-identical traces, the analytic model must agree with the
# executed iteration time within the perfmodel consistency tolerance,
# and a crash+straggler fault plan must recover deterministically.
schedcheck:
	$(GO) run ./cmd/benchfig -schedcheck

# servecheck runs the online-serving degradation contract end to end:
# swkmeansd under a seeded chaos plan (trainer crash at +0.6s, a
# straggling query shard, 15% dropped publishes) with kmload asserting
# zero non-shed failures, monotonic epochs, untorn responses and
# advancing epochs, then a graceful SIGTERM drain (docs/SERVING.md).
servecheck:
	GO="$(GO)" sh scripts/servecheck.sh
