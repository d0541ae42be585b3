# Convenience targets. `install` prefers pip's editable mode and falls back
# to `setup.py develop` on toolchains without the `wheel` package (pip needs
# it to build PEP 660 editable wheels).

PYTHON ?= python

.PHONY: install test bench bench-full e2e e2e-quick examples docs clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_SCALE=full $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The benchmark BENCHMARK.json declares (benchmarks/e2e/README.md): every
# workload in a child process. E2E_FLAGS takes --traced, --workload W, --out F.
e2e:
	PYTHONPATH=src $(PYTHON) -m benchmarks.e2e.run $(E2E_FLAGS)

e2e-quick:
	PYTHONPATH=src $(PYTHON) -m benchmarks.e2e.run --quick $(E2E_FLAGS)

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script || exit 1; done

docs:
	$(PYTHON) docs/generate_api.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
