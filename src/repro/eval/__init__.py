"""Experiment drivers reproducing the paper's tables and figures.

- :mod:`repro.eval.runner` — measure one (workload, SDT-config, profile)
  cell, with equivalence checking against the reference interpreter and
  in-process caching,
- :mod:`repro.eval.differential` — run a program in either harness,
  snapshot what it left behind and name the first field two runs
  differ on (the correctness gates' one comparison),
- :mod:`repro.eval.cells` — the declarative cell model (one schedulable,
  cacheable simulation) with content-addressed fingerprints,
- :mod:`repro.eval.diskcache` — persistent result store under
  ``results/.cache/`` (atomic writes, corruption-tolerant loads),
- :mod:`repro.eval.parallel` — process-pool executor with
  cross-experiment cell dedup and deterministic table assembly,
- :mod:`repro.eval.report` — text/CSV table rendering,
- :mod:`repro.eval.experiments` — E1…E12 drivers declared as cell lists
  plus table builders (see DESIGN.md for the experiment index and
  docs/experiments.md for the executor).
"""

from repro.eval.runner import Measurement, NativeBaseline, measure, run_native
from repro.eval.report import format_table, geomean, write_results

__all__ = [
    "Measurement",
    "NativeBaseline",
    "format_table",
    "geomean",
    "measure",
    "run_native",
    "write_results",
]
