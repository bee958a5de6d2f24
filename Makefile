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

vet:
	$(GO) vet ./...

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
# crash (checkpoint gather + re-striped restore), faults under
# automatic level selection, and transient DMA and message faults on
# 16 ranks, where a retry total summed in the order ranks happen to
# retry would differ from run to run. Every scenario is deterministic
# (docs/FAULT_TOLERANCE.md): FAULTRUN runs it with -summary twice
# under the default driver and once under the DES driver (-sched), and
# the three outputs must be byte-identical. Later flags win, so the
# Level-3/auto runs just override FAULTBASE's level.
FAULTTMP := $(shell mktemp -d)
FAULTBASE = -dataset gauss -n 800 -d 8 -components 4 -level 1 -k 4 -nodes 2 -iters 10
FAULTRUN = @sh -c 'set -e; echo faultcheck: "$$@"; \
	"$$0" -summary "$$@" > $(FAULTTMP)/a.txt; "$$0" -summary "$$@" > $(FAULTTMP)/b.txt; "$$0" -summary -sched "$$@" > $(FAULTTMP)/c.txt; \
	cmp $(FAULTTMP)/a.txt $(FAULTTMP)/b.txt; cmp $(FAULTTMP)/a.txt $(FAULTTMP)/c.txt' $(FAULTTMP)/swkmeans

faultcheck:
	$(GO) build -o $(FAULTTMP)/swkmeans ./cmd/swkmeans
	$(FAULTRUN) $(FAULTBASE) -faults "seed=7; crash=3@2e-5; msg=0.01; retries=32" -ckpt 2
	$(FAULTRUN) $(FAULTBASE) -faults "crash=1@2e-5" -ckpt 2 -droplost
	$(FAULTRUN) $(FAULTBASE) -faults "seed=11; dma=0.05; msg=0.05; retries=64"
	$(FAULTRUN) $(FAULTBASE) -faults "link=*@0:1x4; slow=2x1.5"
	$(FAULTRUN) $(FAULTBASE) -faults "crashnode=1@3e-5; hb=1e-4" -ckpt 3
	$(FAULTRUN) $(FAULTBASE) -level 3 -mprime 4 -faults "seed=5; crash=5@2e-5; msg=0.01; retries=32" -ckpt 2
	$(FAULTRUN) $(FAULTBASE) -level 3 -mprime 2 -faults "crash=3@2e-5" -ckpt 2 -droplost
	$(FAULTRUN) $(FAULTBASE) -level 0 -faults "seed=9; crash=2@2e-5; dma=0.02; retries=32" -ckpt 2
	$(FAULTRUN) -dataset gauss -n 8192 -d 16 -k 8 -nodes 4 -level 1 -iters 6 -faults "seed=11; dma=0.05; msg=0.05; retries=64"
	rm -rf $(FAULTTMP)

# obscheck verifies the observability determinism contract end to end:
# the same seeded scenario run twice exports byte-identical Chrome
# trace and metrics files (docs/OBSERVABILITY.md), for a coarse Level-3
# run, a crash-recovery run, and the fine-grained CPE-level kernels:
# fine2's point-to-point min-reduce and slice combine, and fine1's and
# fine3's mesh allreduces (fine3 over two CGs).
# The final scenario is the scale gate: a 4,096-rank DES epoch under
# the rollup recorder exports its aggregate profile, folded stacks and
# aggregate Perfetto trace byte-identically twice, and cmd/obsdiff
# confirms zero deltas with exit 0. Its artifacts land in obscheck-out/
# (gitignored) for CI upload.
OBSBASE = $(GO) run ./cmd/swkmeans -dataset gauss -n 512 -d 8 -components 4 -k 4 -nodes 2 -iters 4
OBS4K = $(GO) run ./cmd/swkmeans -dataset imgnet -d 256 -stride 4096 -level 3 -k 2000 -nodes 1024 -mprime 128 -iters 1 -sched -rollup
OBSTMP := $(shell mktemp -d)

obscheck:
	$(OBSBASE) -level 3 -trace-out $(OBSTMP)/a.json -metrics-out $(OBSTMP)/a.jsonl -timeline
	$(OBSBASE) -level 3 -trace-out $(OBSTMP)/b.json -metrics-out $(OBSTMP)/b.jsonl -timeline
	cmp $(OBSTMP)/a.json $(OBSTMP)/b.json
	cmp $(OBSTMP)/a.jsonl $(OBSTMP)/b.jsonl
	$(OBSBASE) -level 1 -iters 10 -faults "seed=7; crash=3@2e-5" -ckpt 2 -trace-out $(OBSTMP)/fa.json
	$(OBSBASE) -level 1 -iters 10 -faults "seed=7; crash=3@2e-5" -ckpt 2 -trace-out $(OBSTMP)/fb.json
	cmp $(OBSTMP)/fa.json $(OBSTMP)/fb.json
	$(OBSBASE) -algo fine2 -mgroup 8 -trace-out $(OBSTMP)/c.json
	$(OBSBASE) -algo fine2 -mgroup 8 -trace-out $(OBSTMP)/d.json
	cmp $(OBSTMP)/c.json $(OBSTMP)/d.json
	$(OBSBASE) -algo fine1 -trace-out $(OBSTMP)/e1.json -metrics-out $(OBSTMP)/e1.jsonl
	$(OBSBASE) -algo fine1 -trace-out $(OBSTMP)/e2.json -metrics-out $(OBSTMP)/e2.jsonl
	cmp $(OBSTMP)/e1.json $(OBSTMP)/e2.json
	cmp $(OBSTMP)/e1.jsonl $(OBSTMP)/e2.jsonl
	$(OBSBASE) -algo fine3 -mprime 2 -trace-out $(OBSTMP)/g1.json -metrics-out $(OBSTMP)/g1.jsonl
	$(OBSBASE) -algo fine3 -mprime 2 -trace-out $(OBSTMP)/g2.json -metrics-out $(OBSTMP)/g2.jsonl
	cmp $(OBSTMP)/g1.json $(OBSTMP)/g2.json
	cmp $(OBSTMP)/g1.jsonl $(OBSTMP)/g2.jsonl
	mkdir -p obscheck-out
	$(OBS4K) -profile-out obscheck-out/profile-4k.json -folded-out obscheck-out/folded-4k.txt -trace-out obscheck-out/trace-agg-4k.json
	$(OBS4K) -profile-out $(OBSTMP)/p4k.json -folded-out $(OBSTMP)/f4k.txt -trace-out $(OBSTMP)/t4k.json
	cmp obscheck-out/profile-4k.json $(OBSTMP)/p4k.json
	cmp obscheck-out/folded-4k.txt $(OBSTMP)/f4k.txt
	cmp obscheck-out/trace-agg-4k.json $(OBSTMP)/t4k.json
	$(GO) run ./cmd/obsdiff obscheck-out/profile-4k.json $(OBSTMP)/p4k.json
	rm -rf $(OBSTMP)

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
