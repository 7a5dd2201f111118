# Contributor entry points mirroring .github/workflows/ci.yml, so CI is
# reproducible locally with one command.  Tool-dependent targets (fmt, doc)
# skip with a notice when the tool is not installed rather than failing,
# matching the CI jobs that install them explicitly.

.PHONY: all build test fmt doc bench bench-smoke obs-smoke serve-smoke merge-smoke ci clean

all: build

build:
	dune build

test: build
	dune runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "fmt: ocamlformat not installed — skipping (CI runs it)"; \
	fi

doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc; \
	else \
	  echo "doc: odoc not installed — skipping (CI runs it)"; \
	fi

# Full evaluation tables (slow); see bench/main.ml for flags.
bench:
	dune exec bench/main.exe

# Re-measure the pipeline and gate against the committed baseline
# (test/check_bench.ml: >3x per-stage wall-clock regression, jobs=1 vs
# jobs=4 report divergence, speedup < 1.0x, or >1.5x build allocation
# growth, fails the build).  The second line re-runs the checker so the
# speedup and allocation deltas print even when the alias was cached.
bench-smoke:
	dune build @bench-smoke
	dune exec test/check_bench.exe -- _build/default/test/BENCH_pipeline.json BENCH_pipeline.json
	dune exec bin/namer_cli.exe -- report --check

# Observability smoke mirroring the obs-smoke CI job: train + two cached
# scans into a throwaway state dir, then assert 3 ledger records, an
# OpenMetrics export that validates, and a report that shows both scans.
obs-smoke: build
	@set -eu; \
	state=$$(mktemp -d); trap 'rm -rf "$$state"' EXIT; \
	export XDG_STATE_HOME="$$state"; \
	dune exec bin/namer_cli.exe -- generate --lang python --repos 12 --out "$$state/corpus"; \
	dune exec bin/namer_cli.exe -- train --lang python "$$state/corpus" --model "$$state/m.nmdl"; \
	dune exec bin/namer_cli.exe -- scan --model "$$state/m.nmdl" --cache-dir "$$state/cache" \
	  --metrics-out "$$state/om.prom" --log-json "$$state/scan1.jsonl" "$$state/corpus" > "$$state/s1.out"; \
	dune exec bin/namer_cli.exe -- scan --model "$$state/m.nmdl" --cache-dir "$$state/cache" \
	  --quiet --metrics-out "$$state/om.prom" --log-json "$$state/scan2.jsonl" "$$state/corpus" > "$$state/s2.out"; \
	diff "$$state/s1.out" "$$state/s2.out"; \
	test "$$(wc -l < "$$state/namer/ledger.jsonl")" -eq 3; \
	grep -q '^# EOF$$' "$$state/om.prom"; \
	dune exec bin/namer_cli.exe -- report --check; \
	echo "obs-smoke: OK"

# Serve smoke mirroring the serve-smoke CI job: start the daemon on a
# Unix socket, fire 50 concurrent requests (with a model hot-swap
# mid-traffic) through bench/loadtest.exe, and require the responses to
# be byte-identical to `namer scan --model`, a clean SIGTERM drain, and
# a serve row in the run ledger.
serve-smoke: build
	@set -eu; \
	state=$$(mktemp -d); trap 'rm -rf "$$state"' EXIT; \
	namer=_build/default/bin/namer_cli.exe; \
	loadtest=_build/default/bench/loadtest.exe; \
	"$$namer" generate --lang python --repos 12 --out "$$state/corpus" 2>/dev/null; \
	"$$namer" train --lang python "$$state/corpus" --model "$$state/m.nmdl" 2>/dev/null; \
	"$$namer" serve --model "$$state/m.nmdl" --socket "$$state/namer.sock" \
	  --cache-dir "$$state/cache" --jobs 4 --ledger "$$state/ledger" \
	  2> "$$state/daemon.err" & pid=$$!; \
	for _ in $$(seq 1 100); do [ -S "$$state/namer.sock" ] && break; sleep 0.1; done; \
	[ -S "$$state/namer.sock" ]; \
	"$$loadtest" --socket "$$state/namer.sock" --dir "$$state/corpus" \
	  --clients 8 --requests 50 --max-reports 100000 \
	  --reload-at 25 --reload-model "$$state/m.nmdl" \
	  --expect-identical --dump-text "$$state/serve.txt" --out "$$state/loadtest.json"; \
	"$$namer" scan --model "$$state/m.nmdl" --max-reports 100000 "$$state/corpus" \
	  > "$$state/cli.txt" 2>/dev/null; \
	diff "$$state/serve.txt" "$$state/cli.txt"; \
	kill -TERM "$$pid"; wait "$$pid"; \
	[ ! -e "$$state/namer.sock" ]; \
	grep -q '"cmd":"serve"' "$$state/ledger/ledger.jsonl"; \
	cat "$$state/daemon.err"; \
	echo "serve-smoke: OK"

# Merge smoke, the one definition the merge-smoke CI job runs: deal a
# generated corpus's repos into two symlink-farm halves, train each into
# a partial, merge the partials into a model, and require it to scan the
# corpus byte-identically to a direct train over everything; then check
# the --update incremental path lands on the same reports, that its model
# is byte-identical to the --merge model (both are first-seen over half1
# then half2; the direct train is not, as the halves interleave repos),
# and that the merge runs left cmd:"merge" rows in the run ledger.
merge-smoke: build
	@set -eu; \
	state=$$(mktemp -d); trap 'rm -rf "$$state"' EXIT; \
	namer=_build/default/bin/namer_cli.exe; \
	"$$namer" corpus --files 2000 --out "$$state/corpus" 2>/dev/null; \
	mkdir -p "$$state/half1" "$$state/half2"; \
	i=0; for d in "$$state"/corpus/*/; do \
	  i=$$((i + 1)); \
	  ln -s "$$(readlink -f "$$d")" "$$state/half$$((i % 2 + 1))/$$(basename "$$d")"; \
	done; \
	"$$namer" train "$$state/half1" --partial "$$state/h1.nprt" --ledger "$$state/ledger" 2>/dev/null; \
	"$$namer" train "$$state/half2" --partial "$$state/h2.nprt" --ledger "$$state/ledger" 2>/dev/null; \
	"$$namer" train --merge "$$state/h1.nprt" "$$state/h2.nprt" \
	  --model "$$state/merged.nmdl" --ledger "$$state/ledger" 2>/dev/null; \
	"$$namer" train "$$state/corpus" --model "$$state/full.nmdl" --ledger "$$state/ledger" 2>/dev/null; \
	"$$namer" scan "$$state/corpus" --model "$$state/merged.nmdl" --max-reports 100000 \
	  > "$$state/merged.txt" 2>/dev/null; \
	"$$namer" scan "$$state/corpus" --model "$$state/full.nmdl" --max-reports 100000 \
	  > "$$state/full.txt" 2>/dev/null; \
	diff "$$state/merged.txt" "$$state/full.txt"; \
	cp "$$state/h1.nprt" "$$state/inc.nprt"; \
	"$$namer" train --update "$$state/inc.nprt" --add "$$state/half2" \
	  --model "$$state/inc.nmdl" --ledger "$$state/ledger" 2>/dev/null; \
	"$$namer" scan "$$state/corpus" --model "$$state/inc.nmdl" --max-reports 100000 \
	  > "$$state/inc.txt" 2>/dev/null; \
	diff "$$state/inc.txt" "$$state/full.txt"; \
	cmp "$$state/inc.nmdl" "$$state/merged.nmdl"; \
	test "$$(grep -c '"cmd":"merge"' "$$state/ledger/ledger.jsonl")" -eq 2; \
	"$$namer" report --dir "$$state/ledger" | grep -q ' merge '; \
	echo "merge-smoke: OK"

# Everything the CI workflow checks, in order.
ci: build test fmt bench-smoke obs-smoke serve-smoke merge-smoke

clean:
	dune clean
