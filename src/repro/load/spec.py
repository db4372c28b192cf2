"""`LoadSpec`: the JSON description of one open-loop load experiment.

A load spec is data, in the same sense a
:class:`~repro.runtime.workload.WorkloadSpec` is: generators come from
an allowlist, every field is validated up front with a typed
:class:`~repro.exceptions.ValidationError`, and two specs that parse
equal produce byte-identical request plans
(:func:`~repro.load.schedule.build_plan` is a pure function of the
spec).  Wall clocks appear only in *pacing* and *measurement* -- never
in any decision that affects which requests are sent or what answers
are expected.

Spec shape (see ``docs/load.md`` for the full schema)::

    {"name": "smoke",
     "tenants": [{"name": "t0",
                  "schema": {"generator": "random_62_chordal_graph",
                             "params": {"blocks": 4, "rng": 3}}},
                 {"name": "churn",
                  "schema": {"generator": "random_62_chordal_graph",
                             "params": {"blocks": 3, "rng": 5}},
                  "token": "s3cret",
                  "limits": {"max_batch_requests": 64}}],
     "arrival": {"schedule": "poisson", "rate": 200.0,
                 "requests": 120, "seed": 1},
     "profile": {"connect": 6, "batch": 2, "interpret": 2,
                 "enumerate": 2, "mutate": 1, "bad_auth": 1,
                 "over_quota": 1},
     "terminals": 3, "batch_size": 4,
     "enumerate": {"budget": 2, "pages": 3, "reconnect": true},
     "clients": 4, "seed": 42, "verify": true,
     "budgets": {"latency_ms": {"connect": {"p50": 250, "p99": 1000}},
                 "error_rates": {"internal": 0.0},
                 "min_achieved_fraction": 0.05},
     "soak": {"cycles": 4, "queries_per_cycle": 6,
              "edits_per_cycle": 1,
              "allowed_growth": {"oracle_rows": 0}}}
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ValidationError
from repro.runtime.workload import GENERATORS

#: Operation kinds a traffic profile may weight.  The first five are the
#: service surface; ``bad_auth`` and ``over_quota`` are *deliberate*
#: error traffic whose typed rejection kind is part of the verified
#: behaviour (they exercise the auth and quota layers under load).
PROFILE_OPS = (
    "connect",
    "batch",
    "interpret",
    "enumerate",
    "mutate",
    "bad_auth",
    "over_quota",
)

#: Latency quantiles a budget may bound, as (field name, quantile).
QUANTILE_FIELDS = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))

#: Resource probes a soak section may bound (see :mod:`repro.load.soak`).
SOAK_PROBES = ("oracle_rows", "schema_contexts", "disk_bytes")


def _require(condition: bool, message: str) -> None:
    """Raise a :class:`ValidationError` unless ``condition`` holds."""
    if not condition:
        raise ValidationError(message)


def _check_unknown(data: Dict[str, Any], allowed, where: str) -> None:
    """Reject unknown keys -- a typo must not silently run with defaults."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown {where} field(s): {unknown}")


@dataclass(frozen=True)
class TenantSpec:
    """One simulated tenant: a generated schema plus auth/quota settings.

    Attributes
    ----------
    name:
        Tenant name, unique within the spec.
    generator / params:
        Schema generator (key into the workload allowlist) and its
        keyword arguments, exactly as in
        :class:`~repro.runtime.workload.WorkloadSpec`.
    token:
        Optional mutation token.  A tokened tenant receives the spec's
        authenticated ``mutate`` traffic and is eligible for
        ``bad_auth`` error traffic.  When the profile mixes mutation
        with query traffic, tokened tenants form the *churn* population
        and token-free tenants serve the verified query traffic --
        answers on a schema under concurrent mutation are not
        checksum-stable, so the planner keeps the populations disjoint.
    config / limits:
        Per-tenant :class:`~repro.api.config.ServiceConfig` overrides
        and :class:`~repro.server.registry.TenantLimits` fields,
        forwarded verbatim to ``create_schema``.
    """

    name: str
    generator: str
    params: Tuple[Tuple[str, Any], ...]
    token: Optional[str] = None
    config: Tuple[Tuple[str, Any], ...] = ()
    limits: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.name), "tenant name must be a non-empty string")
        if self.generator not in GENERATORS:
            raise ValidationError(
                f"unknown schema generator {self.generator!r}; known: "
                f"{sorted(GENERATORS)}"
            )
        try:
            inspect.signature(GENERATORS[self.generator]).bind(**dict(self.params))
        except TypeError as error:
            raise ValidationError(
                f"tenant {self.name!r}: invalid params for generator "
                f"{self.generator!r}: {error}"
            ) from error

    def build_schema(self):
        """Generate this tenant's schema graph (deterministic)."""
        return GENERATORS[self.generator](**dict(self.params))

    @property
    def max_batch_requests(self) -> int:
        """The tenant's batch-size quota (registry default when unset)."""
        from repro.server.registry import TenantLimits

        return dict(self.limits).get(
            "max_batch_requests", TenantLimits().max_batch_requests
        )

    def to_dict(self) -> dict:
        """Return the JSON form of this tenant."""
        data: Dict[str, Any] = {
            "name": self.name,
            "schema": {"generator": self.generator, "params": dict(self.params)},
        }
        if self.token is not None:
            data["token"] = self.token
        if self.config:
            data["config"] = dict(self.config)
        if self.limits:
            data["limits"] = dict(self.limits)
        return data


@dataclass(frozen=True)
class ArrivalSpec:
    """Open-loop arrival control: how many requests, offered at what rate.

    Attributes
    ----------
    schedule:
        ``"fixed"`` (request *i* arrives at ``i / rate``) or
        ``"poisson"`` (exponential inter-arrival gaps drawn from the
        seeded RNG -- the classic open-system arrival model).
    rate:
        Offered rate in requests per second.  Arrivals are *scheduled*,
        not gated on completions: a slow server falls behind the
        schedule instead of silently slowing the generator down
        (no coordinated omission).
    requests:
        Total operations in the plan.  Counting requests instead of
        seconds keeps the plan -- and therefore the verify checksum --
        independent of wall time.
    seed:
        Arrival RNG seed (derived from the spec seed when ``None``).
    """

    schedule: str = "fixed"
    rate: float = 100.0
    requests: int = 100
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        _require(
            self.schedule in ("fixed", "poisson"),
            f"arrival schedule must be 'fixed' or 'poisson', got {self.schedule!r}",
        )
        _require(self.rate > 0, "arrival rate must be > 0")
        _require(self.requests >= 1, "arrival requests must be >= 1")


@dataclass(frozen=True)
class Budgets:
    """Declared pass/fail envelopes for a load run.

    Attributes
    ----------
    latency_ms:
        Per-op quantile bounds, as ``((op, ((field, ms), ...)), ...)``
        -- e.g. ``connect`` p99 under 500 ms.  An op with traffic but no
        budget is reported, not gated.
    error_rates:
        Maximum fraction of operations allowed to end in each error
        kind (``internal``, ``admission``, ``transport``, ...).  Kinds
        produced by *deliberate* error traffic (``auth``, ``quota``)
        are only violations if budgeted tighter than the profile sends.
    min_achieved_fraction:
        Lower bound on achieved rate / offered rate; catches a
        generator that cannot keep its own schedule (results would be
        closed-loop numbers wearing an open-loop label).
    """

    latency_ms: Tuple[Tuple[str, Tuple[Tuple[str, float], ...]], ...] = ()
    error_rates: Tuple[Tuple[str, float], ...] = ()
    min_achieved_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        quantile_names = {name for name, _ in QUANTILE_FIELDS}
        for op, bounds in self.latency_ms:
            _require(
                op in PROFILE_OPS,
                f"latency budget for unknown op {op!r}; known: {list(PROFILE_OPS)}",
            )
            for fieldname, limit in bounds:
                _require(
                    fieldname in quantile_names,
                    f"latency budget field must be one of {sorted(quantile_names)}, "
                    f"got {fieldname!r}",
                )
                _require(limit > 0, f"latency budget {op}.{fieldname} must be > 0")
        for kind, fraction in self.error_rates:
            _require(
                0.0 <= fraction <= 1.0,
                f"error-rate budget for {kind!r} must be within [0, 1]",
            )
        if self.min_achieved_fraction is not None:
            _require(
                0.0 < self.min_achieved_fraction <= 1.0,
                "min_achieved_fraction must be within (0, 1]",
            )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Budgets":
        """Build budgets from their JSON form."""
        _check_unknown(
            data, ("latency_ms", "error_rates", "min_achieved_fraction"), "budget"
        )
        latency = data.get("latency_ms", {})
        _require(isinstance(latency, dict), "'budgets.latency_ms' must be an object")
        latency_items = []
        for op, bounds in sorted(latency.items()):
            _require(
                isinstance(bounds, dict),
                f"'budgets.latency_ms.{op}' must be an object of quantile bounds",
            )
            latency_items.append(
                (op, tuple((name, float(ms)) for name, ms in sorted(bounds.items())))
            )
        error_rates = data.get("error_rates", {})
        _require(
            isinstance(error_rates, dict), "'budgets.error_rates' must be an object"
        )
        fraction = data.get("min_achieved_fraction")
        return cls(
            latency_ms=tuple(latency_items),
            error_rates=tuple(
                (kind, float(value)) for kind, value in sorted(error_rates.items())
            ),
            min_achieved_fraction=None if fraction is None else float(fraction),
        )

    def to_dict(self) -> dict:
        """Return the JSON form of the budgets."""
        data: Dict[str, Any] = {}
        if self.latency_ms:
            data["latency_ms"] = {
                op: dict(bounds) for op, bounds in self.latency_ms
            }
        if self.error_rates:
            data["error_rates"] = dict(self.error_rates)
        if self.min_achieved_fraction is not None:
            data["min_achieved_fraction"] = self.min_achieved_fraction
        return data


@dataclass(frozen=True)
class SoakSpec:
    """The soak section: repeated churn+query+enumerate cycles with probes.

    Attributes
    ----------
    cycles:
        How many churn+query+enumerate cycles to run.  Resource probes
        are sampled once per cycle.
    queries_per_cycle / edits_per_cycle / enumerate_budget / terminals:
        The per-cycle traffic shape.  Every edit is a grow-then-prune
        pair, so the schema returns to its starting structure each
        cycle -- a correctly behaving stack reaches a resource plateau,
        and anything that keeps climbing is a leak.
    warmup:
        Samples ignored before growth is measured (caches legitimately
        fill during the first cycles).
    allowed_growth:
        Per-probe growth allowance beyond the warmup baseline
        (default 0 for every sampled probe).
    seed:
        Soak traffic seed (derived from the spec seed when ``None``).
    """

    cycles: int = 4
    queries_per_cycle: int = 6
    edits_per_cycle: int = 1
    enumerate_budget: int = 2
    terminals: int = 3
    warmup: int = 1
    allowed_growth: Tuple[Tuple[str, float], ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.cycles >= 2, "soak cycles must be >= 2 (growth needs a slope)")
        _require(self.queries_per_cycle >= 1, "soak queries_per_cycle must be >= 1")
        _require(self.edits_per_cycle >= 0, "soak edits_per_cycle must be >= 0")
        _require(self.enumerate_budget >= 1, "soak enumerate_budget must be >= 1")
        _require(self.terminals >= 1, "soak terminals must be >= 1")
        _require(0 <= self.warmup < self.cycles, "soak warmup must be < cycles")
        for probe, allowance in self.allowed_growth:
            _require(
                probe in SOAK_PROBES,
                f"unknown soak probe {probe!r}; known: {list(SOAK_PROBES)}",
            )
            _require(allowance >= 0, f"soak allowance for {probe!r} must be >= 0")

    def to_dict(self) -> dict:
        """Return the JSON form of the soak section."""
        data: Dict[str, Any] = {
            "cycles": self.cycles,
            "queries_per_cycle": self.queries_per_cycle,
            "edits_per_cycle": self.edits_per_cycle,
            "enumerate_budget": self.enumerate_budget,
            "terminals": self.terminals,
            "warmup": self.warmup,
        }
        if self.allowed_growth:
            data["allowed_growth"] = dict(self.allowed_growth)
        if self.seed is not None:
            data["seed"] = self.seed
        return data


@dataclass(frozen=True)
class LoadSpec:
    """A complete, JSON-serialisable open-loop load experiment.

    Attributes
    ----------
    name:
        Free-form label, echoed into the report.
    tenants:
        The simulated tenant population (at least one).
    arrival:
        The open-loop :class:`ArrivalSpec`.
    profile:
        Traffic-mix weights over :data:`PROFILE_OPS` (relative integer
        weights; zero-weight ops are simply absent).
    terminals / batch_size:
        Terminal-set size per query and requests per ``batch`` /
        ``interpret`` op.
    enumerate_budget / enumerate_pages / reconnect:
        Paged-enumeration shape: page size, pages pulled per op, and
        whether wire-mode sessions resume each follow-up page on a
        *fresh connection* via the continuation token.
    clients:
        Concurrent simulated clients (the executor's thread count).
    seed:
        Master seed every derived RNG hangs off.
    verify:
        Replay the plan against the serial oracle and require matching
        checksums (see :func:`~repro.load.runner.serial_oracle_checksum`).
    budgets:
        The declared :class:`Budgets`.
    soak:
        Optional :class:`SoakSpec` (``None`` = no soak phase).
    """

    name: str
    tenants: Tuple[TenantSpec, ...]
    arrival: ArrivalSpec
    profile: Tuple[Tuple[str, int], ...]
    terminals: int = 3
    batch_size: int = 4
    enumerate_budget: int = 2
    enumerate_pages: int = 3
    reconnect: bool = True
    clients: int = 4
    seed: int = 0
    verify: bool = True
    budgets: Budgets = field(default_factory=Budgets)
    soak: Optional[SoakSpec] = None

    def __post_init__(self) -> None:
        _require(bool(self.tenants), "a load spec needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        _require(len(set(names)) == len(names), "tenant names must be unique")
        weights = dict(self.profile)
        _check_unknown(weights, PROFILE_OPS, "profile")
        for op, weight in weights.items():
            _require(
                isinstance(weight, int) and weight >= 0,
                f"profile weight for {op!r} must be a non-negative integer",
            )
        service_ops = ("connect", "batch", "interpret", "enumerate", "mutate")
        _require(
            any(weights.get(op, 0) > 0 for op in service_ops),
            "profile needs at least one positive service-op weight",
        )
        if weights.get("bad_auth", 0) > 0 or weights.get("mutate", 0) > 0:
            _require(
                any(tenant.token is not None for tenant in self.tenants),
                "'mutate' and 'bad_auth' traffic need at least one tenant "
                "with a token (mutation is authenticated)",
            )
        query_ops = ("connect", "batch", "interpret", "enumerate")
        if weights.get("mutate", 0) > 0 and any(
            weights.get(op, 0) > 0 for op in query_ops
        ):
            _require(
                any(tenant.token is None for tenant in self.tenants),
                "mixing 'mutate' with query traffic needs at least one "
                "token-free tenant: tokened tenants are the churn "
                "population, token-free tenants serve the verified query "
                "traffic (answers on a schema under concurrent mutation "
                "are not checksum-stable)",
            )
        _require(self.terminals >= 1, "terminals must be >= 1")
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require(self.enumerate_budget >= 1, "enumerate_budget must be >= 1")
        _require(self.enumerate_pages >= 1, "enumerate_pages must be >= 1")
        _require(self.clients >= 1, "clients must be >= 1")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LoadSpec":
        """Build a spec from its dict/JSON form (validating everything)."""
        _require(isinstance(data, dict), "a load spec must be a JSON object")
        _check_unknown(
            data,
            (
                "name", "tenants", "arrival", "profile", "terminals",
                "batch_size", "enumerate", "clients", "seed", "verify",
                "budgets", "soak",
            ),
            "load spec",
        )
        tenants_data = data.get("tenants")
        _require(
            isinstance(tenants_data, list) and bool(tenants_data),
            "spec needs 'tenants': a non-empty list",
        )
        tenants = []
        for entry in tenants_data:
            _require(isinstance(entry, dict), "each tenant must be an object")
            _check_unknown(
                entry, ("name", "schema", "token", "config", "limits"), "tenant"
            )
            schema = entry.get("schema")
            _require(
                isinstance(schema, dict) and "generator" in schema,
                "each tenant needs a 'schema' object with a 'generator' name",
            )
            params = schema.get("params", {})
            _require(isinstance(params, dict), "'schema.params' must be an object")
            tenants.append(
                TenantSpec(
                    name=str(entry.get("name", "")),
                    generator=schema["generator"],
                    params=tuple(sorted(params.items())),
                    token=entry.get("token"),
                    config=tuple(sorted((entry.get("config") or {}).items())),
                    limits=tuple(sorted((entry.get("limits") or {}).items())),
                )
            )
        arrival_data = data.get("arrival", {})
        _require(isinstance(arrival_data, dict), "'arrival' must be an object")
        _check_unknown(
            arrival_data, ("schedule", "rate", "requests", "seed"), "arrival"
        )
        arrival = ArrivalSpec(
            schedule=arrival_data.get("schedule", "fixed"),
            rate=float(arrival_data.get("rate", 100.0)),
            requests=int(arrival_data.get("requests", 100)),
            seed=arrival_data.get("seed"),
        )
        profile_data = data.get("profile", {"connect": 1})
        _require(isinstance(profile_data, dict), "'profile' must be an object")
        enum_data = data.get("enumerate", {})
        _require(isinstance(enum_data, dict), "'enumerate' must be an object")
        _check_unknown(enum_data, ("budget", "pages", "reconnect"), "enumerate")
        soak_data = data.get("soak")
        soak: Optional[SoakSpec] = None
        if soak_data is not None:
            _require(isinstance(soak_data, dict), "'soak' must be an object")
            _check_unknown(
                soak_data,
                (
                    "cycles", "queries_per_cycle", "edits_per_cycle",
                    "enumerate_budget", "terminals", "warmup",
                    "allowed_growth", "seed",
                ),
                "soak",
            )
            growth = soak_data.get("allowed_growth", {})
            _require(
                isinstance(growth, dict), "'soak.allowed_growth' must be an object"
            )
            soak = SoakSpec(
                cycles=int(soak_data.get("cycles", 4)),
                queries_per_cycle=int(soak_data.get("queries_per_cycle", 6)),
                edits_per_cycle=int(soak_data.get("edits_per_cycle", 1)),
                enumerate_budget=int(soak_data.get("enumerate_budget", 2)),
                terminals=int(soak_data.get("terminals", 3)),
                warmup=int(soak_data.get("warmup", 1)),
                allowed_growth=tuple(
                    (probe, float(value)) for probe, value in sorted(growth.items())
                ),
                seed=soak_data.get("seed"),
            )
        budgets_data = data.get("budgets", {})
        _require(isinstance(budgets_data, dict), "'budgets' must be an object")
        return cls(
            name=str(data.get("name", "load")),
            tenants=tuple(tenants),
            arrival=arrival,
            profile=tuple(sorted((op, int(w)) for op, w in profile_data.items())),
            terminals=int(data.get("terminals", 3)),
            batch_size=int(data.get("batch_size", 4)),
            enumerate_budget=int(enum_data.get("budget", 2)),
            enumerate_pages=int(enum_data.get("pages", 3)),
            reconnect=bool(enum_data.get("reconnect", True)),
            clients=int(data.get("clients", 4)),
            seed=int(data.get("seed", 0)),
            verify=bool(data.get("verify", True)),
            budgets=Budgets.from_dict(budgets_data),
            soak=soak,
        )

    @classmethod
    def from_json(cls, text: str) -> "LoadSpec":
        """Parse a spec from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValidationError(f"load spec is not valid JSON: {error}") from error
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        """Return the canonical dict form (round-trips through ``from_dict``)."""
        data: Dict[str, Any] = {
            "name": self.name,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
            "arrival": {
                "schedule": self.arrival.schedule,
                "rate": self.arrival.rate,
                "requests": self.arrival.requests,
                **(
                    {"seed": self.arrival.seed}
                    if self.arrival.seed is not None
                    else {}
                ),
            },
            "profile": dict(self.profile),
            "terminals": self.terminals,
            "batch_size": self.batch_size,
            "enumerate": {
                "budget": self.enumerate_budget,
                "pages": self.enumerate_pages,
                "reconnect": self.reconnect,
            },
            "clients": self.clients,
            "seed": self.seed,
            "verify": self.verify,
        }
        budgets = self.budgets.to_dict()
        if budgets:
            data["budgets"] = budgets
        if self.soak is not None:
            data["soak"] = self.soak.to_dict()
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Return the spec as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def tokened_tenants(self) -> Tuple[TenantSpec, ...]:
        """The tenants eligible for authenticated mutation traffic."""
        return tuple(t for t in self.tenants if t.token is not None)
