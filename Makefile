.PHONY: all build test bench bench-json bench-diff crashcheck faultcheck litmus fams golden golden-traced swarm seed-reports profile scale par-bench gcstat layout check

all: build

# Worker domains for the verification campaigns. Every campaign's report
# is identical at every job count (see DESIGN.md §5j); JOBS only buys
# wall-clock. Override with `make check JOBS=8`.
JOBS ?= $(shell nproc 2>/dev/null || echo 1)

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Perf-trajectory point (schema 3) from a full run: every simulated
# table, count and attainment, the 10k-actor sweep, the Bechamel host
# ns/op per experiment kernel and the campaign wall times (par/*), each
# key with its unit and declared gate at full precision, under a meta
# block (schema/mode/seed/jobs/stacks). The committed file is the
# baseline the bench-diff gate below judges by.
bench-json:
	dune exec bench/main.exe -- --json BENCH_PR21.json

# Perf-regression sentinel: regenerate the deterministic (sim-only)
# trajectory in fast mode and judge it against the last committed
# snapshot, each key by the gate the snapshot declares. Exact and sim
# keys have no tolerance; the fast run's meta.mode lets it omit the host
# and 10k-actor keys. Exits 1 on a regression, 2 if a file is refused.
bench-diff:
	dune exec bench/main.exe -- --fast --json BENCH_NEW_FAST.json
	dune exec bin/splitfs_cli.exe -- bench-diff BENCH_PR21.json BENCH_NEW_FAST.json

# Scale-out serving tier smoke: the multi-tenant sweep up to N=1000
# actors across all six stacks, plus the scheduler dispatch-overhead
# microbenchmark (exits non-zero if the event heap is not >= 10x faster
# per dispatch than the reference min-scan). The full N=10000 sweep runs
# under bench-json. (~30s)
scale:
	dune exec bin/splitfs_cli.exe -- scale --fast --jobs $(JOBS)

# Observability: the software-overhead attribution table (where every
# simulated ns goes, per stack), latency percentiles per (stack x op),
# a Perfetto-loadable span trace of a 4-client SplitFS run, and the
# virtual-time telemetry export (OpenMetrics text + counter tracks
# merged into a Perfetto trace) of a 1000-actor serving-tier run.
profile:
	dune exec bin/splitfs_cli.exe -- profile
	dune exec bin/splitfs_cli.exe -- latency
	dune exec bin/splitfs_cli.exe -- trace --fs splitfs-posix --clients 4 \
	  --out trace.json
	dune exec bin/splitfs_cli.exe -- timeline --fs splitfs-posix --actors 1000 \
	  --out-metrics timeline.prom --out-trace timeline-trace.json

# Crash-state exploration: sampled partial-persistence crash states per
# mode, each recovered and checked against the reference oracle. Exits
# non-zero on any invariant violation. (~0.1 s at one job)
crashcheck:
	dune exec bin/splitfs_cli.exe -- crashcheck --jobs $(JOBS)

# Fault-injection campaign: media errors (poisoned lines, worn blocks),
# resource exhaustion (ENOSPC, journal/swap EIO), and scrubber patrols
# injected into every stack x mode, each trial checked against the
# differential fault oracle (masked / retried / correct errno — never
# silent corruption). Exits non-zero on any violation. (~0.1 s at one job)
faultcheck:
	dune exec bin/splitfs_cli.exe -- faultcheck --jobs $(JOBS)

# Litmus corpus: named crash patterns (Ferrite's create-rename,
# two-appends, chrome, replace-via-truncate, plus SplitFS-specific
# WAL-commit, relink-publish, msync-publish and snapshot-cow) explored
# EXHAUSTIVELY on every stack x mode, then the fence minimizer: every
# registered fence site elided in turn and the corpus re-explored to
# prove it REQUIRED (shrunk counterexample) or REDUNDANT. Exits non-zero
# on any contract violation with all fences in place. (~1.6 s at one job,
# ~1.5 s at two)
litmus:
	dune exec bin/splitfs_cli.exe -- litmus --jobs $(JOBS)

# Failure-atomic msync: the two fams litmus patterns (msync-publish,
# snapshot-cow) exhaustively on every stack, the torn-msync canary (with
# the commit record disabled the corpus MUST flag a violation), the fams
# faultcheck leg (staging starvation answers honest ENOSPC), and the
# FAMS-vs-WAL experiment table. Exits non-zero if a contract is violated
# or the canary fails to catch the injected bug. (~0.3 s at two jobs)
fams:
	dune exec bin/splitfs_cli.exe -- fams --jobs $(JOBS)

# Golden reports: each verification campaign's report at its pinned
# seed, crashcheck with an 8,192-state budget (at the pinned seed sync
# and strict fit it, so every one of their 7,472 and 7,988 crash states
# is replayed and checked; posix and fams sample 8,192), the scaling,
# profile and latency tables, and the paper tables (`splitfs_cli all`:
# Tables 1, 2, 6 and 7, Figures 3-6, recovery, resources and
# ablations, every number the baselines produce), must match the
# committed file in test/golden byte for byte. Reports are identical at
# every job count (DESIGN.md §5j), so the campaign files hold the
# --jobs 1 output and the gate runs them at $(JOBS); the experiments
# run sequentially and take no --jobs. A refactor that claims "same
# output from less code" passes this unchanged; a deliberate report
# change regenerates a file with `dune exec bin/splitfs_cli.exe --
# <campaign> --jobs 1 > test/golden/<campaign>.txt` (`-- crashcheck
# --samples 8192 --jobs 1 > test/golden/crashcheck-8192.txt`, `--
# <experiment> > test/golden/<experiment>.txt`, or `-- all >
# test/golden/paper.txt`) and shows up in the diff. Exits non-zero on
# any difference or on a campaign failure.
GOLDEN = crashcheck faultcheck litmus fams
GOLDEN_TABLES = scaling profile latency

golden:
	@mkdir -p _build/golden; status=0; \
	for c in $(GOLDEN); do \
	  echo "golden: $$c"; \
	  dune exec bin/splitfs_cli.exe -- $$c --jobs $(JOBS) \
	    > _build/golden/$$c.txt || status=1; \
	  diff -u test/golden/$$c.txt _build/golden/$$c.txt || status=1; \
	done; \
	echo "golden: crashcheck-8192"; \
	dune exec bin/splitfs_cli.exe -- crashcheck --samples 8192 \
	  --jobs $(JOBS) > _build/golden/crashcheck-8192.txt || status=1; \
	diff -u test/golden/crashcheck-8192.txt \
	  _build/golden/crashcheck-8192.txt || status=1; \
	for c in $(GOLDEN_TABLES); do \
	  echo "golden: $$c"; \
	  dune exec bin/splitfs_cli.exe -- $$c > _build/golden/$$c.txt || status=1; \
	  diff -u test/golden/$$c.txt _build/golden/$$c.txt || status=1; \
	done; \
	echo "golden: paper"; \
	dune exec bin/splitfs_cli.exe -- all > _build/golden/paper.txt || status=1; \
	diff -u test/golden/paper.txt _build/golden/paper.txt || status=1; \
	exit $$status

# Golden under tracing and telemetry: crashcheck with an 8,192-state
# budget, litmus and faultcheck under SPLITFS_TRACE=1 and then under
# SPLITFS_TIMELINE=1, each diffed against test/golden. Span tracing and
# the timeline must leave every report byte-identical, and every crash
# trial runs on a clone of its program's set-up stack, which has to
# carry the span ring and the timeline with it. (~10 s at two jobs)
GOLDEN_TRACED = crashcheck-8192 litmus faultcheck

golden-traced:
	dune build ./bin/splitfs_cli.exe
	@mkdir -p _build/golden; status=0; \
	for var in SPLITFS_TRACE SPLITFS_TIMELINE; do \
	  for c in $(GOLDEN_TRACED); do \
	    echo "golden-traced: $$var=1 $$c"; \
	    case $$c in \
	      crashcheck-8192) args="crashcheck --samples 8192";; \
	      *) args=$$c;; \
	    esac; \
	    env $$var=1 ./_build/default/bin/splitfs_cli.exe $$args \
	      --jobs $(JOBS) > _build/golden/$$c-$$var.txt || status=1; \
	    diff -u test/golden/$$c.txt _build/golden/$$c-$$var.txt || status=1; \
	  done; \
	done; \
	exit $$status

# Seed swarm: crashcheck at seeds 1..K and faultcheck at 0xBEEF and
# seeds 1..96, each with $(JOBS) worker domains. A seed's report is
# printed only if it fails; exits non-zero naming every failing seed.
# The pinned-seed golden runs cover only what seeds 0x51ED and 0xFA17
# reach. `make check` runs K=64. (~0.1 s per seed at one job)
K ?= 16
FAULT_SEEDS = 0xBEEF $(shell seq 1 96)

swarm:
	dune build ./bin/splitfs_cli.exe
	@failed=""; \
	for s in $$(seq 1 $(K)); do \
	  out=$$(./_build/default/bin/splitfs_cli.exe crashcheck --seed $$s \
	    --jobs $(JOBS) 2>&1) || { echo "$$out"; failed="$$failed $$s"; }; \
	done; \
	ffailed=""; \
	for s in $(FAULT_SEEDS); do \
	  out=$$(./_build/default/bin/splitfs_cli.exe faultcheck --seed $$s \
	    --jobs $(JOBS) 2>&1) || { echo "$$out"; ffailed="$$ffailed $$s"; }; \
	done; \
	if [ -n "$$failed" ]; then \
	  echo "swarm: crashcheck failed at seed(s)$$failed"; \
	fi; \
	if [ -n "$$ffailed" ]; then \
	  echo "swarm: faultcheck failed at seed(s)$$ffailed"; \
	fi; \
	if [ -n "$$failed$$ffailed" ]; then exit 1; fi; \
	echo "swarm: crashcheck seeds 1..$(K), faultcheck 0xBEEF and 1..96 clean"

# Seed reports: one file per seed in $(DIR), each holding the campaign's
# report and, on its last line, its exit code, for crashcheck at seeds
# 1..64 and faultcheck at 0xFA17, 0xBEEF and 1..96. A failing seed is
# recorded, not fatal, and a faultcheck seed that runs past 60 s is cut
# and records timeout's exit code 124. Reports are
# identical at every job count, so "byte-identical to the parent" is one
# `diff -r` of two directories, exit codes included: run the target at
# both commits (the parent in its own checkout) with two DIRs.
# (~10 s at two jobs)
DIR ?= seed-reports

seed-reports:
	dune build ./bin/splitfs_cli.exe
	@mkdir -p $(DIR); \
	run() { \
	  out=$$1; shift; \
	  timeout 60 ./_build/default/bin/splitfs_cli.exe "$$@" --jobs $(JOBS) \
	    > $(DIR)/$$out 2>&1; \
	  echo "exit $$?" >> $(DIR)/$$out; \
	}; \
	for s in $$(seq 1 64); do \
	  run crashcheck-$$s.txt crashcheck --seed $$s; \
	done; \
	for s in 0xFA17 $(FAULT_SEEDS); do \
	  run faultcheck-$$s.txt faultcheck --seed $$s; \
	done; \
	echo "seed-reports: $$(ls $(DIR) | wc -l) reports in $(DIR)"

# Campaign wall time at 1/2/4/8 worker domains. On hosts with >= 4
# recommended domains this is also a gate: litmus and minimize must be
# >= 2x faster at 4 jobs than at 1; single-core hosts skip the gate.
par-bench:
	dune exec bin/splitfs_cli.exe -- par-bench

# GC work of the two crash campaigns at one job, as the OCaml runtime
# reports it at exit (OCAMLRUNPARAM=v=0x400): major collections, words
# allocated in the major heap and the top heap size, for litmus and for
# crashcheck with an 8,192-state budget. Each crash trial runs on a
# copy-on-write clone of its program's set-up stack, so these follow
# what a trial allocates in the major heap (DESIGN.md §5c). Prints the
# numbers; no gate.
GCSTAT = "litmus --jobs 1" "crashcheck --samples 8192 --jobs 1"

gcstat:
	dune build ./bin/splitfs_cli.exe
	@for args in $(GCSTAT); do \
	  OCAMLRUNPARAM=v=0x400 ./_build/default/bin/splitfs_cli.exe $$args \
	    2>&1 >/dev/null | awk -v run="$$args" ' \
	    /^(major_collections|major_words|top_heap_words):/ { v[$$1] = $$2 } \
	    END { printf "%-36s major_collections %s major_words %s top_heap_words %s\n", \
	      run, v["major_collections:"], v["major_words:"], v["top_heap_words:"] }'; \
	done

# Code layout of the end-to-end benchmark: the address of the C runtime's
# caml_string_equal and caml_blit_bytes in perfbench.exe and their offset
# within a 64-byte line. zipf-rw's throughput follows these offsets as
# well as its code path (ROADMAP item 10), so a change that moves zipf-rw
# reports them at both commits.
layout:
	dune build ./perfbench/perfbench.exe
	@for sym in caml_string_equal caml_blit_bytes; do \
	  addr=$$(nm _build/default/perfbench/perfbench.exe | \
	    awk -v s=$$sym '$$3 == s { print $$1 }'); \
	  printf '%s 0x%s line offset 0x%02x\n' $$sym $$addr $$((0x$$addr % 64)); \
	done

# Full verification: build, unit + property + differential tests, the
# four verification campaigns, crashcheck with an 8,192-state budget
# (every sync and strict crash state of the pinned seed), the
# scaling/profile/latency tables and the paper tables diffed against
# their golden reports, the same campaigns again under tracing and
# telemetry (golden-traced), the crashcheck swarm over seeds 1..64 and
# the faultcheck swarm over 0xBEEF and seeds 1..96, the
# serving-tier smoke, par-bench and the bench-diff gate. Campaigns run
# with $(JOBS) worker domains. The par-bench table is also kept in
# par-walltime.txt, with par-bench's exit status.
check:
	dune build
	dune runtest
	$(MAKE) golden
	$(MAKE) golden-traced
	$(MAKE) swarm K=64
	dune exec bin/splitfs_cli.exe -- scale --fast --jobs $(JOBS)
	dune exec bin/splitfs_cli.exe -- par-bench > par-walltime.txt; \
	  status=$$?; cat par-walltime.txt; exit $$status
	$(MAKE) bench-diff
