"""End-to-end, layer-attributed benchmark of the query pipeline.

Entry points: :mod:`benchmarks.e2e.run` (the benchmark),
:mod:`benchmarks.e2e.golden` (pinned inputs and oracle answers) and
:mod:`benchmarks.e2e.compare` (two result files against the bounds in
``BENCHMARK.json``). See ``README.md`` beside this file.
"""
