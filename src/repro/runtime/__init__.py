"""`repro.runtime`: persistence and declarative workloads for the service layer.

* :class:`~repro.runtime.diskcache.DiskCache` persists classification
  reports and connection results across processes (opt-in via
  ``ServiceConfig(cache_dir=...)``);
* :class:`~repro.runtime.workload.WorkloadSpec` /
  :func:`~repro.runtime.workload.run_workload` describe and execute whole
  workloads (cold vs warm, in memory vs disk, static vs churn), reported by
  :class:`~repro.runtime.workload.WorkloadReport`;
* ``python -m repro run`` (:mod:`repro.runtime.cli`) is the command-line
  face of it all.

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
from repro.runtime.workload import (
    GENERATORS,
    PhaseResult,
    QueryMix,
    WorkloadReport,
    WorkloadSpec,
    canonical_checksum,
    run_workload,
)

__all__ = [
    "DiskCache",
    "FORMAT_VERSION",
    "GENERATORS",
    "PAYLOAD_VERSION",
    "PayloadError",
    "PhaseResult",
    "QueryMix",
    "WorkloadReport",
    "WorkloadSpec",
    "canonical_checksum",
    "decode_result",
    "encode_result",
    "request_key",
    "run_workload",
]
