"""Persistent, content-addressed store for classification reports and results.

The engine's in-memory :class:`~repro.engine.cache.SchemaCache` dies with
the interpreter, and with it every classification and every solved
answer.  :class:`DiskCache` persists the two artifacts worth keeping
across processes:

* the **classification report** of a schema
  (:class:`~repro.core.classification.ChordalityReport`), keyed by the
  schema's structural digest -- a cold process skips the (blockwise,
  tens of milliseconds on a 500-vertex schema) Theorem 1 recognition;
* individual **connection results**, keyed by ``(schema digest, request
  key)`` -- repeat requests are replayed without solving at all.

Layout and safety
-----------------
Everything lives under ``cache_dir/v<FORMAT_VERSION>/<digest>/``: a
``report.pkl`` plus one ``results/<request key>.pkl`` per answered
request.  Every file embeds its format version and kind; readers treat
*any* anomaly -- unreadable file, wrong version, wrong kind, wrong key,
truncated pickle -- as a miss and rebuild, never crash.  Writes go to a
temporary file followed by an atomic :func:`os.replace`, so a crashed or
concurrent writer can leave at worst an orphaned temp file, never a
half-written entry.  Invalidation is structural: mutating a schema
changes its digest (see :func:`~repro.engine.cache.schema_digest`), so
stale entries are simply never addressed again.

The store is append-only (no eviction); :meth:`DiskCache.clear` drops
everything.  Cache files are pickles: share a cache directory only with
processes you trust, as with any pickle-based store.

Examples
--------
>>> import tempfile
>>> from repro.api import ConnectionService, ServiceConfig
>>> from repro.graphs import BipartiteGraph
>>> g = BipartiteGraph(left=["A", "B"], right=[1], edges=[("A", 1), ("B", 1)])
>>> with tempfile.TemporaryDirectory() as tmp:
...     service = ConnectionService(schema=g, config=ServiceConfig(cache_dir=tmp))
...     first = service.connect(["A", "B"])      # computed, stored
...     replay = service.connect(["A", "B"])     # replayed from disk
...     (first.provenance.result_cache, replay.provenance.result_cache)
(None, 'disk')
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.core.classification import ChordalityReport
from repro.faults.plan import ACTIVE as _FAULTS

#: On-disk format version.  Bumping it retires every existing entry at
#: once (old files live under a ``v<old>/`` directory that is simply never
#: read again) -- the safe way to change the payload schema.  Version 2
#: (6.0.0): :class:`~repro.core.classification.ChordalityReport` has five
#: fields; a version-1 report would unpickle into it without ``v1_alpha``.
FORMAT_VERSION = 2


class DiskCache:
    """Content-addressed persistent cache under one directory.

    Parameters
    ----------
    cache_dir:
        Root directory; created on first write.  Entries live under a
        version subdirectory (``v2/`` for this format), so caches written
        by incompatible library versions coexist without interference.

    Notes
    -----
    Every method is best-effort and exception-free by contract: reads
    return ``None`` on any problem, writes silently count failures in
    :meth:`stats`.  A cache must never take the service down.
    """

    def __init__(self, cache_dir: Union[str, os.PathLike]) -> None:
        self._root = Path(cache_dir) / f"v{FORMAT_VERSION}"
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalid = 0
        self.store_errors = 0

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The versioned root directory of this cache."""
        return self._root

    def _report_path(self, digest: str) -> Path:
        return self._root / digest / "report.pkl"

    def _result_path(self, digest: str, key: str) -> Path:
        return self._root / digest / "results" / f"{key}.pkl"

    # ------------------------------------------------------------------
    # classification reports
    # ------------------------------------------------------------------
    def load_report(self, digest: str) -> Optional[ChordalityReport]:
        """Return the stored classification for a schema digest, or ``None``."""
        record = self._read(self._report_path(digest), kind="report")
        if record is None:
            return None
        report = record.get("data")
        if not isinstance(report, ChordalityReport):
            self.invalid += 1
            return None
        self.hits += 1
        return report

    def store_report(self, digest: str, report: ChordalityReport) -> None:
        """Persist a schema's classification (no-op when already stored)."""
        path = self._report_path(digest)
        try:
            if path.exists():
                return
        except OSError:
            return
        self._write(path, {"format": FORMAT_VERSION, "kind": "report", "data": report})

    # ------------------------------------------------------------------
    # connection results
    # ------------------------------------------------------------------
    def load_result(self, digest: str, key: str) -> Optional[dict]:
        """Return the stored result payload for ``(digest, key)``, or ``None``.

        The payload is the :func:`~repro.runtime.codec.encode_result` dict;
        decoding (and its own validation) is the caller's job, and so is
        counting the lookup: a ``hit`` once the payload decodes, ``invalid``
        when it does not.
        """
        record = self._read(self._result_path(digest, key), kind="result")
        if record is None:
            return None
        if record.get("key") != key or not isinstance(record.get("data"), dict):
            self.invalid += 1
            return None
        return record["data"]

    def store_result(self, digest: str, key: str, payload: dict) -> None:
        """Persist one result payload under ``(digest, key)``."""
        self._write(
            self._result_path(digest, key),
            {"format": FORMAT_VERSION, "kind": "result", "key": key, "data": payload},
        )

    # ------------------------------------------------------------------
    # maintenance / observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Return observability counters (hits/misses/stores/invalid/errors)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "store_errors": self.store_errors,
            "root": str(self._root),
        }

    def size_bytes(self) -> int:
        """Total bytes stored under this cache's format version.

        Walks the store (0 when nothing was written yet); a *capacity*
        number for leak monitors (:mod:`repro.load.soak`) -- a
        content-addressed store replaying a fixed schema population must
        plateau, so monotonic growth here means entries are being minted
        that never repeat.
        """
        total = 0
        if not self._root.exists():
            return 0
        for path in self._root.rglob("*"):
            try:
                if path.is_file():
                    total += path.stat().st_size
            except OSError:  # racing a concurrent writer/clear is fine
                continue
        return total

    def clear(self) -> None:
        """Delete every entry of this cache's format version."""
        shutil.rmtree(self._root, ignore_errors=True)

    # ------------------------------------------------------------------
    # low-level record IO
    # ------------------------------------------------------------------
    def _read(self, path: Path, kind: str) -> Optional[dict]:
        """Load one record; any anomaly is a miss (``None``), never an error."""
        try:
            with open(path, "rb") as handle:
                record = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # truncated/corrupted pickle, permission problem, unpicklable
            # class from another library version: ignore and rebuild
            self.invalid += 1
            return None
        if (
            not isinstance(record, dict)
            or record.get("format") != FORMAT_VERSION
            or record.get("kind") != kind
        ):
            self.invalid += 1
            return None
        return record

    def _write(self, path: Path, record: dict) -> None:
        """Atomically write one record (temp file + ``os.replace``).

        The ``disk-write-tear`` fault site truncates the temp file to
        half its bytes before the rename -- the on-disk outcome of a
        process killed mid-write whose rename still landed.  Readers
        must treat the torn entry as a miss and rebuild (:meth:`_read`'s
        any-anomaly-is-a-miss contract), which the fault suite proves.
        """
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
                injector = _FAULTS.injector  # no-op default: one check
                if (
                    injector is not None
                    and injector.fire("disk-write-tear") is not None
                ):
                    size = os.path.getsize(tmp_name)
                    with open(tmp_name, "r+b") as handle:
                        handle.truncate(size // 2)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self.stores += 1
        except Exception:
            # a full disk or unwritable directory degrades the cache, not
            # the service
            self.store_errors += 1
