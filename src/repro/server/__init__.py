"""Multi-tenant async connection server (``python -m repro serve``).

This package puts the whole :mod:`repro.api` surface behind a socket: an
:class:`~repro.server.app.ReproServer` speaks length-prefixed JSON
frames over TCP (:mod:`repro.server.protocol`), fronting a
:class:`~repro.server.registry.SchemaRegistry` that hosts many named
schemas with per-tenant configuration, admission control, and LRU
eviction of cold tenants backed by the
:class:`~repro.runtime.diskcache.DiskCache` for disk-warm rebinds.  Ranked
enumeration streams pause and resume *across the wire* -- opaque
continuation tokens (:mod:`repro.server.codec`) survive client
reconnects and even server restarts.  A sidecar HTTP listener serves the
metrics registry at ``GET /metrics``.

See ``docs/server.md`` for the frame format, the command table, tenant
lifecycle and drain semantics.
"""

from repro.server.app import ReproServer
from repro.server.client import (
    IDEMPOTENT_COMMANDS,
    ReproClient,
    RetryPolicy,
    fetch_metrics,
)
from repro.server.codec import (
    decode_continuation,
    decode_schema,
    decode_value,
    decode_wire_result,
    encode_continuation,
    encode_schema,
    encode_value,
    encode_wire_result,
)
from repro.server.errors import (
    AdmissionError,
    AuthenticationError,
    DeadlineError,
    ProtocolError,
    QuotaError,
    RemoteError,
    ServerError,
    TenantExistsError,
    UnknownTenantError,
    envelope_for,
)
from repro.server.protocol import (
    COMMANDS,
    MAX_FRAME_BYTES,
    WIRE_FORMAT_VERSION,
    Argument,
    Command,
    encode_frame,
    lookup_command,
    read_frame,
)
from repro.server.registry import SchemaRegistry, TenantLimits, TenantRecord

__all__ = [
    "ReproServer",
    "ReproClient",
    "RetryPolicy",
    "IDEMPOTENT_COMMANDS",
    "WIRE_FORMAT_VERSION",
    "fetch_metrics",
    "SchemaRegistry",
    "TenantLimits",
    "TenantRecord",
    "Argument",
    "Command",
    "COMMANDS",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "read_frame",
    "lookup_command",
    "encode_value",
    "decode_value",
    "encode_schema",
    "decode_schema",
    "encode_wire_result",
    "decode_wire_result",
    "encode_continuation",
    "decode_continuation",
    "ServerError",
    "ProtocolError",
    "UnknownTenantError",
    "TenantExistsError",
    "AuthenticationError",
    "AdmissionError",
    "QuotaError",
    "DeadlineError",
    "RemoteError",
    "envelope_for",
]
