"""flowbench: end-to-end, layer-by-layer benchmark of the Flowtree pipeline.

records -> per-site binned trees -> FTRE summaries -> framed TCP ->
collector -> durable store -> indexed queries.  See ``README.md`` in this
directory for the workload and metric glossary; ``run.py`` is the entry
point named by the root ``BENCHMARK.json``.
"""
