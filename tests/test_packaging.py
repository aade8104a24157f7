"""Packaging metadata: the package version has one source."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_is_read_from_the_package():
    # repro.__version__ salts the disk-cache keys and labels benchmark
    # reports, so the distribution metadata must not carry its own copy
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    assert "version" in project["project"]["dynamic"]
    assert "version" not in project["project"]
    dynamic = project["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "repro.__version__"}
