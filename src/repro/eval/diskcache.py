"""Content-addressed on-disk cache for experiment cell results.

Layout: ``<root>/<key[:2]>/<key[2:]>.json``, where ``key`` is the SHA-256
of the cell's full fingerprint (workload source, scale, fuel, complete
config/profile field set, and a code-version salt — see
:meth:`repro.eval.cells.Cell.fingerprint`).  Each entry stores the
fingerprint alongside the payload and is only served when it matches the
requesting cell exactly, so a stale or colliding entry can never be
trusted.

Writes are atomic (temp file in the same directory, then ``os.replace``),
so a crashed or concurrent writer leaves either the old entry or the new
one, never a torn file.  Loads are corruption-tolerant: any entry that
fails to parse or validate is discarded and recomputed.  Concurrent
multi-process access is safe by construction: readers see either the old
or the new complete entry (tests/test_eval_diskcache.py stresses this
with racing writer/reader processes).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.eval.cells import Cell, decode_result, encode_result

#: Default cache root, next to the experiment artefacts.
DEFAULT_CACHE_DIR = Path("results") / ".cache"


class DiskCache:
    """Persistent cell-result store with hit/miss accounting."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else DEFAULT_CACHE_DIR
        self.hits = 0
        self.misses = 0

    def path_for(self, cell: Cell) -> Path:
        key = cell.key()
        return self.root / key[:2] / f"{key[2:]}.json"

    def get(self, cell: Cell):
        """The cached result for ``cell``, or ``None``.

        A missing entry is a plain miss; a present-but-invalid entry
        (truncated JSON, wrong shape, fingerprint mismatch) is deleted
        and reported as a miss so the caller recomputes it.
        """
        path = self.path_for(cell)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("fingerprint") != repr(cell.fingerprint()):
                raise ValueError("fingerprint mismatch")
            result = decode_result(payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, TypeError, KeyError):
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, cell: Cell, result) -> None:
        """Persist ``result`` for ``cell`` atomically."""
        path = self.path_for(cell)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"fingerprint": repr(cell.fingerprint())}
        payload.update(encode_result(result))
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
