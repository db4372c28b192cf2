"""`repro.runtime`: persistence for the service layer, and the command line.

* :class:`~repro.runtime.diskcache.DiskCache` persists classification
  reports and connection results across processes (opt-in via
  ``ServiceConfig(cache_dir=...)``);
* :mod:`repro.runtime.cli` is ``python -m repro``: ``run`` replays a
  :class:`~repro.load.spec.LoadSpec` serially as cold, warm and
  disk-cached phases (:func:`~repro.load.runner.run_phases`), ``load``
  drives it open-loop, ``serve`` starts the server.

See ``docs/runtime.md`` for the caching guide.
"""

from repro.runtime.codec import (
    PAYLOAD_VERSION,
    PayloadError,
    decode_result,
    encode_result,
    request_key,
)
from repro.runtime.diskcache import FORMAT_VERSION, DiskCache

__all__ = [
    "DiskCache",
    "FORMAT_VERSION",
    "PAYLOAD_VERSION",
    "PayloadError",
    "decode_result",
    "encode_result",
    "request_key",
]
