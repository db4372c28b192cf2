"""`repro.api`: the typed service façade over the paper's scenario.

One entry point (:class:`ConnectionService`), typed request/result objects
(:class:`ConnectionRequest`, :class:`ConnectionResult` with
:class:`Guarantee` and :class:`Provenance`), streaming enumeration for
interactive disambiguation (:class:`EnumerationStream`) and one
configuration object (:class:`ServiceConfig`).  All solver dispatch flows
through :mod:`repro.engine`, and :meth:`ConnectionService.batch` is the
library's only batch path.
"""

from repro.api.config import ServiceConfig
from repro.api.context import RequestContext, current_request, request_scope
from repro.api.request import ConnectionRequest
from repro.api.result import ConnectionResult, Guarantee, Provenance
from repro.api.service import ConnectionService, default_service
from repro.api.stream import EnumerationStream

__all__ = [
    "ConnectionRequest",
    "ConnectionResult",
    "ConnectionService",
    "EnumerationStream",
    "Guarantee",
    "Provenance",
    "RequestContext",
    "ServiceConfig",
    "current_request",
    "default_service",
    "request_scope",
]
