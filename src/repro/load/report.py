"""Typed load-run results: latency quantiles, error taxonomy, budgets.

A load run produces a stream of :class:`OpSample` records (one per
executed operation).  :func:`build_report` folds them into a
:class:`LoadReport`: per-op :class:`OpStats` with p50/p99/p999 latency,
the achieved-vs-offered arrival rate, an error taxonomy keyed on the
server's typed error kinds, and -- via :func:`evaluate_budgets` -- a
list of human-readable budget violations.  ``LoadReport.ok()`` is the
single pass/fail bit the CLI and CI gate on.

Quantiles use the nearest-rank method (ceil(q*n)-th smallest), so a
report is an exact function of the sample multiset -- no interpolation,
no floating-point drift between platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.load.spec import QUANTILE_FIELDS, Budgets, LoadSpec


@dataclass(frozen=True)
class OpSample:
    """One executed operation, as recorded by a load client.

    ``error`` holds the typed error kind when the operation failed (or
    bounced with an *expected* error), ``""`` on success.  ``digest`` is
    the canonical answer digest fed into the verify checksum (``None``
    for ops excluded from verification, e.g. admission retries that
    eventually succeeded keep their success digest, but a sample that
    exhausted retries carries ``None``).  ``retries`` counts admission
    bounces absorbed before the final outcome.
    """

    index: int
    op: str
    tenant: str
    latency_s: float
    error: str = ""
    expected: bool = False
    digest: Optional[str] = None
    retries: int = 0


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in ``(0, 1]``).

    Returns ``0.0`` for an empty sequence so per-op stats stay total.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass(frozen=True)
class OpStats:
    """Latency and outcome statistics for one operation type."""

    op: str
    count: int
    errors: int
    p50_ms: float
    p99_ms: float
    p999_ms: float
    mean_ms: float

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-ready mapping of the stats."""
        return {
            "op": self.op,
            "count": self.count,
            "errors": self.errors,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "mean_ms": self.mean_ms,
        }


@dataclass(frozen=True)
class LoadReport:
    """The complete result of one load run.

    ``error_taxonomy`` counts every typed error kind observed,
    *including* deliberate traffic (``auth``/``quota`` bounces the plan
    asked for); ``unexpected_errors`` counts only failures the plan did
    not script, and it is what error-rate budgets are evaluated
    against.  ``checksum``/``oracle_checksum`` carry the verify-mode
    digests (empty strings when verification was off).  ``phases``
    holds ``(name, seconds, checksum)`` per replay of a serial
    ``repro run`` (empty for a load run); each must match the oracle
    too.
    """

    spec_name: str
    mode: str
    requests: int
    duration_s: float
    offered_rate: float
    achieved_rate: float
    op_stats: Tuple[OpStats, ...]
    error_taxonomy: Tuple[Tuple[str, int], ...]
    unexpected_errors: int
    retries: int
    budget_violations: Tuple[str, ...]
    checksum: str = ""
    oracle_checksum: str = ""
    soak: Optional[object] = None
    extra: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)
    phases: Tuple[Tuple[str, float, str], ...] = ()

    def matches_oracle(self) -> bool:
        """True when verify was off or every checksum equals the oracle's."""
        checksums = {self.checksum, *(checksum for _, _, checksum in self.phases)}
        return not self.oracle_checksum or checksums == {self.oracle_checksum}

    def ok(self) -> bool:
        """Return ``True`` when every declared budget held and verify matched."""
        if self.budget_violations or not self.matches_oracle():
            return False
        soak = self.soak
        if soak is not None and not soak.ok():  # type: ignore[attr-defined]
            return False
        return True

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-ready mapping of the report."""
        data: Dict[str, object] = {
            "spec": self.spec_name,
            "mode": self.mode,
            "requests": self.requests,
            "duration_s": self.duration_s,
            "offered_rate": self.offered_rate,
            "achieved_rate": self.achieved_rate,
            "ops": [stats.to_dict() for stats in self.op_stats],
            "error_taxonomy": dict(self.error_taxonomy),
            "unexpected_errors": self.unexpected_errors,
            "retries": self.retries,
            "budget_violations": list(self.budget_violations),
            "checksum": self.checksum,
            "oracle_checksum": self.oracle_checksum,
            "ok": self.ok(),
        }
        if self.phases:
            data["phases"] = [
                {"name": name, "seconds": seconds, "checksum": checksum}
                for name, seconds, checksum in self.phases
            ]
        if self.soak is not None:
            data["soak"] = self.soak.to_dict()  # type: ignore[attr-defined]
        for key, value in self.extra:
            data[key] = value
        return data

    def to_json(self) -> str:
        """Serialise the report to pretty-printed JSON."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        """Render the report as an aligned human-readable summary."""
        lines = [
            f"load report: {self.spec_name} [{self.mode}]",
            (
                f"  requests {self.requests}  duration {self.duration_s:.2f}s"
                f"  offered {self.offered_rate:.1f}/s"
                f"  achieved {self.achieved_rate:.1f}/s"
            ),
            f"  {'op':<12}{'count':>7}{'errors':>8}"
            f"{'p50ms':>10}{'p99ms':>10}{'p999ms':>10}",
        ]
        for stats in self.op_stats:
            lines.append(
                f"  {stats.op:<12}{stats.count:>7}{stats.errors:>8}"
                f"{stats.p50_ms:>10.2f}{stats.p99_ms:>10.2f}{stats.p999_ms:>10.2f}"
            )
        taxonomy = ", ".join(f"{kind}={count}" for kind, count in self.error_taxonomy)
        lines.append(f"  errors: {taxonomy or 'none'}"
                     f" (unexpected: {self.unexpected_errors},"
                     f" admission retries: {self.retries})")
        for name, seconds, checksum in self.phases:
            lines.append(f"  phase {name:<14}{seconds:>9.3f}s  {checksum[:16]}…")
        if self.oracle_checksum:
            verdict = "MATCH" if self.matches_oracle() else "MISMATCH"
            lines.append(f"  verify: {verdict} ({self.checksum[:16]}…)")
        if self.soak is not None:
            lines.append(self.soak.render_text())  # type: ignore[attr-defined]
        if self.budget_violations:
            lines.append("  budget violations:")
            lines.extend(f"    - {violation}" for violation in self.budget_violations)
        else:
            lines.append("  budgets: all within budget")
        lines.append(f"  verdict: {'PASS' if self.ok() else 'FAIL'}")
        return "\n".join(lines)


def _op_stats(op: str, samples: List[OpSample]) -> OpStats:
    """Fold one op's samples into an :class:`OpStats`."""
    latencies = [sample.latency_s * 1000.0 for sample in samples]
    errors = sum(1 for sample in samples if sample.error)
    return OpStats(
        op=op,
        count=len(samples),
        errors=errors,
        p50_ms=quantile(latencies, 0.50),
        p99_ms=quantile(latencies, 0.99),
        p999_ms=quantile(latencies, 0.999),
        mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
    )


def evaluate_budgets(
    budgets: Budgets,
    op_stats: Sequence[OpStats],
    unexpected_by_kind: Dict[str, int],
    requests: int,
    offered_rate: float,
    achieved_rate: float,
) -> List[str]:
    """Check every declared budget; return one message per violation.

    Latency budgets compare an op's quantile field (``p50``/``p99``/
    ``p999``) against a millisecond ceiling; error budgets bound the
    *unexpected* error fraction per kind (``"*"`` matches the total
    across kinds); ``min_achieved_fraction`` guards against the
    generator falling behind the offered schedule.
    """
    violations: List[str] = []
    by_op = {stats.op: stats for stats in op_stats}
    valid_fields = {name for name, _ in QUANTILE_FIELDS}
    for op, limits in budgets.latency_ms:
        stats = by_op.get(op)
        if stats is None or stats.count == 0:
            violations.append(f"latency budget on {op!r}: no samples recorded")
            continue
        for fieldname, ceiling in limits:
            if fieldname not in valid_fields:
                continue
            observed = getattr(stats, f"{fieldname}_ms")
            if observed > ceiling:
                violations.append(
                    f"{op}.{fieldname} = {observed:.2f}ms exceeds budget {ceiling:.2f}ms"
                )
    total_unexpected = sum(unexpected_by_kind.values())
    for kind, ceiling in budgets.error_rates:
        count = total_unexpected if kind == "*" else unexpected_by_kind.get(kind, 0)
        fraction = count / requests if requests else 0.0
        if fraction > ceiling:
            violations.append(
                f"error rate for {kind!r} = {fraction:.4f}"
                f" ({count}/{requests}) exceeds budget {ceiling:.4f}"
            )
    if budgets.min_achieved_fraction is not None and offered_rate > 0:
        fraction = achieved_rate / offered_rate
        if fraction < budgets.min_achieved_fraction:
            violations.append(
                f"achieved rate {achieved_rate:.1f}/s is"
                f" {fraction:.2f} of offered {offered_rate:.1f}/s,"
                f" below budget {budgets.min_achieved_fraction:.2f}"
            )
    return violations


def build_report(
    spec: LoadSpec,
    mode: str,
    samples: Sequence[OpSample],
    duration_s: float,
    checksum: str = "",
    oracle_checksum: str = "",
    soak: Optional[object] = None,
    phases: Tuple[Tuple[str, float, str], ...] = (),
) -> LoadReport:
    """Fold executed samples into a budget-evaluated :class:`LoadReport`."""
    by_op: Dict[str, List[OpSample]] = {}
    taxonomy: Dict[str, int] = {}
    unexpected: Dict[str, int] = {}
    retries = 0
    for sample in samples:
        by_op.setdefault(sample.op, []).append(sample)
        retries += sample.retries
        if sample.error:
            taxonomy[sample.error] = taxonomy.get(sample.error, 0) + 1
            if not sample.expected:
                unexpected[sample.error] = unexpected.get(sample.error, 0) + 1
    op_stats = tuple(_op_stats(op, by_op[op]) for op in sorted(by_op))
    offered = spec.arrival.rate
    achieved = len(samples) / duration_s if duration_s > 0 else 0.0
    violations = evaluate_budgets(
        spec.budgets, op_stats, unexpected, len(samples), offered, achieved
    )
    if soak is not None and not soak.ok():  # type: ignore[attr-defined]
        violations = list(violations) + [
            f"soak leak: {leak}" for leak in soak.leaks  # type: ignore[attr-defined]
        ]
    return LoadReport(
        spec_name=spec.name,
        mode=mode,
        requests=len(samples),
        duration_s=duration_s,
        offered_rate=offered,
        achieved_rate=achieved,
        op_stats=op_stats,
        error_taxonomy=tuple(sorted(taxonomy.items())),
        unexpected_errors=sum(unexpected.values()),
        retries=retries,
        budget_violations=tuple(violations),
        checksum=checksum,
        oracle_checksum=oracle_checksum,
        soak=soak,
        phases=phases,
    )


__all__ = [
    "LoadReport",
    "OpSample",
    "OpStats",
    "build_report",
    "evaluate_budgets",
    "quantile",
]
