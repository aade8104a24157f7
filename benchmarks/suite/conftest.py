"""Make the program importable for the benchmark's tests.

The benchmark runs from a plain checkout, so the tests add ``src`` to the
import path when the package is not installed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
