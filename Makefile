.PHONY: install test test-fast bench bench-figures profile experiments export examples api-doc goldens sentinel bench-history fault-matrix fault-smoke audit-smoke fuzz-smoke store-stress serve-smoke serve-chaos report-smoke dse-smoke ci all

export PYTHONPATH := src

install:
	pip install -e .[dev]

test:
	pytest tests/

test-fast:
	pytest tests/ -m "not goldens"

bench:
	python benchmarks/bench_perf.py

bench-figures:
	pytest benchmarks/ --benchmark-only

profile:
	python -c "import cProfile, pstats, sys; \
	from repro.harness.runner import run_all; \
	cProfile.run('run_all()', '/tmp/repro_harness.prof'); \
	pstats.Stats('/tmp/repro_harness.prof').sort_stats('cumulative').print_stats(25)"

experiments:
	python -m repro.harness.runner

export:
	python -m repro.harness.runner --export-dir results

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done; echo "all examples OK"

api-doc:
	python tools/gen_api_doc.py

goldens:
	python tools/gen_goldens.py

sentinel:
	python tools/check_regression.py

bench-history: bench
	python tools/check_regression.py --append --skip-goldens

fault-matrix:
	python -m pytest -q tests/resilience/

fault-smoke:
	python tools/fault_smoke.py

audit-smoke:
	python -m repro run fig13 design_space_plus sparsity batch_sweep extensions ablations --audit full

fuzz-smoke:
	python -m repro fuzz --specs 200 --seed 0 --no-corpus

store-stress:
	python -m pytest -q tests/store/

serve-smoke:
	python tools/serve_smoke.py

serve-chaos:
	python tools/serve_chaos.py

dse-smoke:
	python tools/dse_smoke.py

report-smoke:
	python -m repro report fig13 fig16 --top 5

ci:
	python -m pytest -x -q -m "not goldens" tests/
	python -m pytest -q -m goldens tests/
	python tools/check_regression.py
	python tools/fault_smoke.py
	$(MAKE) audit-smoke
	python -m repro fuzz --specs 200 --seed 0 --no-corpus
	python -m pytest -q tests/store/
	python tools/serve_smoke.py
	python tools/serve_chaos.py
	python -m repro report fig13 fig16 --top 5
	python tools/dse_smoke.py
	python -m pytest benchmarks/suite -q

all: test bench experiments
