"""Fault plans, the injector that executes them, and the process-wide slot.

A :class:`FaultPlan` is compiled from a JSON-shaped dict exactly the way
``repro.load.spec.LoadSpec`` is: every key is whitelisted, every value is
type- and range-checked up front, and the result is a frozen dataclass
whose behaviour is a pure function of its fields.  Each rule binds one
*site id* (where the fault fires) to one *trigger* (when it fires):

* ``at`` -- an explicit list of 0-based hit indices;
* ``every`` -- fire on every N-th hit (hit indices ``N-1, 2N-1, ...``);
* ``probability`` -- a Bernoulli draw per hit from a ``random.Random``
  seeded from ``plan.seed`` and the rule's position, never from ambient
  process state.

``limit`` caps the total number of firings per rule and ``delay_ms``
parameterises delay-style sites.  :meth:`FaultPlan.schedule` previews
the firing hit-indices for a site without touching any live state --
the determinism contract the hypothesis suite pins.

The hot-path contract: instrumented code does::

    injector = ACTIVE.injector
    if injector is not None and injector.fire("disk-write-tear"):
        ...

so with the plane disabled (the process-wide default) a site costs one
attribute load and one ``is None`` check.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.exceptions import ValidationError

#: The closed vocabulary of injection sites.  Adding a site means
#: instrumenting real code; the spec parser rejects names not listed
#: here so a typo'd plan fails loudly instead of silently never firing.
SITES: Tuple[str, ...] = (
    "wire-frame-delay",
    "wire-frame-drop",
    "disk-write-tear",
    "deadline-exceeded",
    "server-kill",
)

_RULE_KEYS = ("site", "at", "every", "probability", "limit", "delay_ms")
_PLAN_KEYS = ("seed", "rules")


def _require(mapping: dict, key: str, kinds, context: str):
    """Fetch ``mapping[key]`` and type-check it (LoadSpec's idiom)."""
    if key not in mapping:
        raise ValidationError(f"{context}: missing required key {key!r}")
    value = mapping[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        names = (
            "/".join(k.__name__ for k in kinds)
            if isinstance(kinds, tuple)
            else kinds.__name__
        )
        raise ValidationError(
            f"{context}: {key!r} must be {names}, got {type(value).__name__}"
        )
    return value


def _check_unknown(mapping: dict, allowed, context: str) -> None:
    """Reject keys outside the whitelist, naming the offenders."""
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ValidationError(
            f"{context}: unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class FaultRule:
    """One compiled rule: a site id bound to exactly one trigger.

    Exactly one of ``at`` / ``every`` / ``probability`` is set; the
    parser enforces exclusivity so a rule's firing schedule is never
    ambiguous.
    """

    site: str
    at: Tuple[int, ...] = ()
    every: Optional[int] = None
    probability: Optional[float] = None
    limit: Optional[int] = None
    delay_ms: int = 0

    @staticmethod
    def from_dict(data: dict, index: int) -> "FaultRule":
        """Validate and freeze one rule mapping from a plan spec."""
        context = f"fault rule #{index}"
        if not isinstance(data, dict):
            raise ValidationError(f"{context}: must be an object")
        _check_unknown(data, _RULE_KEYS, context)
        site = _require(data, "site", str, context)
        if site not in SITES:
            raise ValidationError(
                f"{context}: unknown site {site!r}; known sites: {list(SITES)}"
            )
        triggers = [key for key in ("at", "every", "probability") if key in data]
        if len(triggers) != 1:
            raise ValidationError(
                f"{context}: exactly one trigger of 'at'/'every'/'probability' "
                f"is required, got {triggers or 'none'}"
            )
        at: Tuple[int, ...] = ()
        every = probability = None
        if "at" in data:
            raw = _require(data, "at", list, context)
            for position, hit in enumerate(raw):
                if not isinstance(hit, int) or isinstance(hit, bool) or hit < 0:
                    raise ValidationError(
                        f"{context}: at[{position}] must be a non-negative int"
                    )
            at = tuple(sorted(set(raw)))
        elif "every" in data:
            every = _require(data, "every", int, context)
            if every < 1:
                raise ValidationError(f"{context}: 'every' must be >= 1")
        else:
            probability = float(_require(data, "probability", (int, float), context))
            if not 0.0 <= probability <= 1.0:
                raise ValidationError(f"{context}: 'probability' must be in [0, 1]")
        limit = None
        if "limit" in data:
            limit = _require(data, "limit", int, context)
            if limit < 1:
                raise ValidationError(f"{context}: 'limit' must be >= 1")
        delay_ms = 0
        if "delay_ms" in data:
            delay_ms = _require(data, "delay_ms", int, context)
            if delay_ms < 0:
                raise ValidationError(f"{context}: 'delay_ms' must be >= 0")
        return FaultRule(
            site=site, at=at, every=every, probability=probability,
            limit=limit, delay_ms=delay_ms,
        )

    def to_dict(self) -> dict:
        """Round-trip the rule back to its spec mapping."""
        data: dict = {"site": self.site}
        if self.every is not None:
            data["every"] = self.every
        elif self.probability is not None:
            data["probability"] = self.probability
        else:
            data["at"] = list(self.at)
        if self.limit is not None:
            data["limit"] = self.limit
        if self.delay_ms:
            data["delay_ms"] = self.delay_ms
        return data


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, seeded fault schedule: rules compiled from a JSON spec.

    The plan is pure data; :meth:`injector` mints the mutable executor.
    Two plans with equal fields produce byte-identical schedules -- the
    replayability guarantee chaos mode is built on.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        """Reject duplicate sites: one rule per site keeps firing unambiguous."""
        sites = [rule.site for rule in self.rules]
        duplicates = sorted({site for site in sites if sites.count(site) > 1})
        if duplicates:
            raise ValidationError(
                f"fault plan: duplicate rule(s) for site(s) {duplicates}"
            )

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        """Validate and compile a JSON-shaped plan spec."""
        if not isinstance(data, dict):
            raise ValidationError("fault plan: spec must be an object")
        _check_unknown(data, _PLAN_KEYS, "fault plan")
        seed = 0
        if "seed" in data:
            seed = _require(data, "seed", int, "fault plan")
        raw_rules = _require(data, "rules", list, "fault plan")
        rules = tuple(
            FaultRule.from_dict(rule, index)
            for index, rule in enumerate(raw_rules)
        )
        return FaultPlan(seed=seed, rules=rules)

    def to_dict(self) -> dict:
        """Round-trip the plan back to its spec mapping."""
        return {"seed": self.seed, "rules": [r.to_dict() for r in self.rules]}

    def injector(self) -> "FaultInjector":
        """Mint a fresh executor with all hit counters at zero."""
        return FaultInjector(self)

    def schedule(self, site: str, hits: int) -> Tuple[int, ...]:
        """Preview which of the first ``hits`` hits at ``site`` fire.

        Pure: builds a throwaway injector, so calling this never
        perturbs a live run's counters or RNG streams.
        """
        probe = self.injector()
        return tuple(
            index for index in range(hits) if probe.fire(site) is not None
        )


class _RuleState:
    """Mutable per-rule execution state (hit counter, firings, RNG)."""

    __slots__ = ("rule", "hits", "fired", "rng")

    def __init__(self, rule: FaultRule, seed: int, index: int) -> None:
        """Derive the rule's private RNG from the plan seed and position."""
        self.rule = rule
        self.hits = 0
        self.fired = 0
        # same derivation idiom as repro.load.schedule: the stream
        # depends only on (plan seed, rule position), never on wall
        # clock or interpreter state
        self.rng = random.Random(seed * 1000003 + index * 101 + 7)

    def fire(self) -> bool:
        """Advance the hit counter and decide whether this hit fires."""
        rule = self.rule
        index = self.hits
        self.hits += 1
        if rule.limit is not None and self.fired >= rule.limit:
            return False
        if rule.at:
            firing = index in rule.at
        elif rule.every is not None:
            firing = (index + 1) % rule.every == 0
        else:
            # the draw happens on *every* hit so the stream position is
            # a function of the hit index alone
            firing = self.rng.random() < (rule.probability or 0.0)
        if firing:
            self.fired += 1
        return firing


class FaultInjector:
    """Executes a :class:`FaultPlan`: counts hits per site, fires on schedule.

    Thread-safe: sites are hit from server event loops, worker threads
    and load clients concurrently, so the counter update is taken under
    one lock.  Sites without a rule return ``None`` without locking.
    """

    def __init__(self, plan: FaultPlan) -> None:
        """Bind the plan and zero every rule's counters."""
        self.plan = plan
        self._lock = threading.Lock()
        self._states: Dict[str, _RuleState] = {
            rule.site: _RuleState(rule, plan.seed, index)
            for index, rule in enumerate(plan.rules)
        }
        self._log: List[Tuple[str, int]] = []

    def fire(self, site: str) -> Optional[FaultRule]:
        """Record one hit at ``site``; return the rule iff the fault fires."""
        state = self._states.get(site)
        if state is None:
            return None
        with self._lock:
            index = state.hits
            if not state.fire():
                return None
            self._log.append((site, index))
            return state.rule

    def hits(self, site: str) -> int:
        """Total hits recorded at ``site`` so far."""
        state = self._states.get(site)
        return state.hits if state is not None else 0

    def fired(self, site: str) -> int:
        """Total firings at ``site`` so far."""
        state = self._states.get(site)
        return state.fired if state is not None else 0

    def decisions(self) -> Tuple[Tuple[str, int], ...]:
        """The ordered ``(site, hit_index)`` log of every firing."""
        with self._lock:
            return tuple(self._log)


class _ActiveSlot:
    """The process-wide injector slot; ``injector is None`` means disabled."""

    __slots__ = ("injector",)

    def __init__(self) -> None:
        """Start disabled: production processes never pay more than the check."""
        self.injector: Optional[FaultInjector] = None


#: Process-wide slot every instrumented site reads.  Default ``None``:
#: the whole plane is one attribute check when disabled.
ACTIVE = _ActiveSlot()


def install(target: Union[FaultPlan, FaultInjector]) -> FaultInjector:
    """Activate a plan (minting a fresh injector) or an existing injector."""
    injector = target.injector() if isinstance(target, FaultPlan) else target
    ACTIVE.injector = injector
    return injector


def clear() -> None:
    """Deactivate the fault plane (restore the no-op default)."""
    ACTIVE.injector = None


@contextmanager
def injected(target: Union[FaultPlan, FaultInjector]) -> Iterator[FaultInjector]:
    """Scope an active injector to a ``with`` block (test idiom)."""
    injector = install(target)
    try:
        yield injector
    finally:
        clear()
