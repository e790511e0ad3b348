"""Experiment harnesses that regenerate every table and figure in the paper.

| Module | Paper artifact |
|---|---|
| :mod:`repro.experiments.table1` | Table 1 — comparison with related evasion methods |
| :mod:`repro.experiments.table2` | Table 2 — technique overhead model |
| :mod:`repro.experiments.table3` | Table 3 — per-technique effectiveness matrix |
| :mod:`repro.experiments.figure4` | Figure 4 — GFC flushing vs. time of day |
| :mod:`repro.experiments.efficiency` | §6.1–6.6 — characterization efficiency |
| :mod:`repro.experiments.throughput` | §6.2 — T-Mobile throughput with/without lib·erate |
| :mod:`repro.experiments.sprint` | §6.4 — Sprint shows no DPI |
| :mod:`repro.experiments.ablation` | DESIGN.md §6 — design-choice ablations |

Each module exposes a ``run_*`` function returning plain data plus a
``format_*`` helper that renders the paper-style table; the pytest-benchmark
suite under ``benchmarks/`` wraps these.
"""
