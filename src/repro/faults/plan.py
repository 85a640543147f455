"""Deterministic, seedable fault injection for the hot paths.

The serving, parallelism, and registry layers are threaded with *named
injection points* — ``faults.site("serve.read_frame")`` and friends — that
are zero-cost no-ops until a :class:`FaultPlan` is armed (mirroring the
``REPRO_OBS=0`` philosophy: one module-level ``None`` check on the fast
path).  An armed plan is a seeded *schedule* mapping sites to actions:

``raise[:token]``
    Raise an exception at the site.  ``token`` selects a registered
    exception factory (see :func:`register_exception`); the default is
    :class:`InjectedFault`.
``delay:seconds``
    Sleep at the site (``asyncio.sleep`` through :func:`site_async`, so
    event-loop call sites stay responsive and per-request deadlines can
    fire).
``corrupt``
    Deterministically flip bytes of the payload passed to the site —
    used on framed byte strings to simulate wire corruption of the
    length prefix or JSON body.
``kill[:code]``
    ``os._exit`` the current process: a worker crash that no ``except``
    clause can absorb.  Used with the :mod:`repro.parallel` process pool
    (site ``parallel.job``).
``drop``
    Raise :class:`InjectedDrop` (a ``ConnectionError``): socket-layer
    call sites translate it into a torn connection.

When each rule fires is part of the schedule, not left to chance:

* ``@n1,n2,...`` fires on exactly those 1-based hits of the rule
  (hit counters live in shared memory, so under the default ``fork``
  start method a rule sees ONE global hit sequence across every worker
  process — "kill the first chunk evaluated anywhere" means exactly one
  death, however many workers race);
* ``%p`` fires with probability ``p``, decided by hashing
  ``(plan seed, rule index, hit number)`` — the decision sequence is a
  pure function of the seed, reproducible across runs and processes;
* no suffix fires on every hit.

Plans are armed programmatically (:func:`arm` / :func:`armed`) or from
the environment: ``REPRO_FAULTS="<seed>:<site>=<action>[@hits|%p][;...]"``
is parsed and armed when this package is first imported, which is how the
CI chaos job and spawned subprocesses join a schedule.

Every injected fault is counted in :mod:`repro.obs` (``faults.injected``,
``faults.<site>``, ``faults.action.<action>``), so chaos tests can assert
that the faults they planned actually happened.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import multiprocessing
import os
import random
import time
from typing import Callable, Dict, FrozenSet, List, Optional

from repro import obs

FAULTS_ENV = "REPRO_FAULTS"

ACTIONS = ("raise", "delay", "corrupt", "kill", "drop")

#: Default exit code for ``kill`` — distinctive in worker post-mortems.
KILL_EXIT_CODE = 42

#: How many bytes ``corrupt`` flips (at most; short payloads flip fewer).
CORRUPT_BYTES = 3


class FaultError(ValueError):
    """A fault specification could not be parsed."""


class InjectedFault(RuntimeError):
    """The default exception raised by a ``raise`` action."""

    def __init__(self, site: str, message: Optional[str] = None):
        super().__init__(message or f"injected fault at {site!r}")
        self.site = site


class InjectedDrop(ConnectionError):
    """An injected connection drop (``drop`` action).

    Subclasses :class:`ConnectionError` so transport code paths handle it
    exactly like a real peer reset.
    """

    def __init__(self, site: str):
        super().__init__(f"injected connection drop at {site!r}")
        self.site = site


#: Exception factories selectable by ``raise:<token>``.  Modules with
#: domain-specific failures register theirs at import time (e.g.
#: ``repro.serve.batching`` registers ``queue_full`` so a plan can make
#: the server answer 429).
_EXCEPTIONS: Dict[str, Callable[[str], BaseException]] = {
    "fault": InjectedFault,
    "drop": InjectedDrop,
    "connection": lambda site: ConnectionError(f"injected connection error at {site!r}"),
    "os": lambda site: OSError(f"injected os error at {site!r}"),
    "timeout": lambda site: TimeoutError(f"injected timeout at {site!r}"),
}


def register_exception(token: str, factory: Callable[[str], BaseException]) -> None:
    """Make ``raise:<token>`` raise ``factory(site_name)``."""
    _EXCEPTIONS[token] = factory


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One line of a fault schedule: where, what, and when."""

    site: str                               #: exact name, or prefix ending in ``*``
    action: str                             #: one of :data:`ACTIONS`
    arg: Optional[str] = None               #: action argument (token/seconds/code)
    hits: Optional[FrozenSet[int]] = None   #: 1-based hit numbers; None = every hit
    probability: Optional[float] = None     #: seeded per-hit coin; None = always

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise FaultError(f"unknown fault action {self.action!r} (know {ACTIONS})")
        if self.hits is not None and self.probability is not None:
            raise FaultError(f"rule for {self.site!r} has both @hits and %probability")
        if self.hits is not None and any(h < 1 for h in self.hits):
            raise FaultError(f"hit numbers are 1-based, got {sorted(self.hits)}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise FaultError(f"probability must be in [0, 1], got {self.probability}")
        if self.action == "delay":
            try:
                if self.delay_s < 0:
                    raise ValueError
            except (TypeError, ValueError):
                raise FaultError(
                    f"delay needs a non-negative seconds arg, got {self.arg!r}"
                ) from None
        if self.action == "raise" and self.token not in _EXCEPTIONS:
            raise FaultError(
                f"raise:{self.token} is not a registered exception "
                f"(know {sorted(_EXCEPTIONS)})"
            )

    def matches(self, site_name: str) -> bool:
        if self.site.endswith("*"):
            return site_name.startswith(self.site[:-1])
        return site_name == self.site

    @property
    def delay_s(self) -> float:
        return float(self.arg if self.arg is not None else 0.05)

    @property
    def exit_code(self) -> int:
        return int(self.arg) if self.arg is not None else KILL_EXIT_CODE

    @property
    def token(self) -> str:
        return self.arg or "fault"

    def spec(self) -> str:
        """Render back to the one-rule spec syntax."""
        text = f"{self.site}={self.action}"
        if self.arg is not None:
            text += f":{self.arg}"
        if self.hits is not None:
            text += "@" + ",".join(str(h) for h in sorted(self.hits))
        if self.probability is not None:
            text += f"%{self.probability:g}"
        return text


@dataclasses.dataclass(frozen=True)
class Outcome:
    """A triggered rule, ready to execute at a site."""

    rule: FaultRule
    index: int
    hit: int
    site: str


class FaultPlan:
    """A seeded schedule of fault rules with shared-memory hit counters.

    The hit counters are ``multiprocessing.Value`` cells created when the
    plan is built, so forked workers (process pools, killed-worker drills)
    advance the *same* sequence as the parent — rule ``@1`` fires exactly
    once per armed plan, process-wide, not once per process.
    """

    def __init__(self, rules: List[FaultRule], seed: int = 0):
        self.rules = list(rules)
        self.seed = int(seed)
        self._hits = [multiprocessing.Value("q", 0) for _ in self.rules]
        self._injected = [multiprocessing.Value("q", 0) for _ in self.rules]

    # -- construction ----------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse ``site=action[:arg][@hits|%p][;...]`` into a plan."""
        rules = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            rules.append(cls._parse_rule(part))
        if not rules:
            raise FaultError(f"fault spec {spec!r} contains no rules")
        return cls(rules, seed=seed)

    @classmethod
    def from_env(cls, value: str) -> "FaultPlan":
        """Parse the ``$REPRO_FAULTS`` form ``<seed>:<spec>``."""
        head, sep, spec = value.partition(":")
        if not sep:
            raise FaultError(
                f"${FAULTS_ENV} must look like '<seed>:<spec>', got {value!r}"
            )
        try:
            seed = int(head)
        except ValueError:
            raise FaultError(f"${FAULTS_ENV} seed {head!r} is not an integer") from None
        return cls.parse(spec, seed=seed)

    @staticmethod
    def _parse_rule(text: str) -> FaultRule:
        site, sep, rest = text.partition("=")
        if not sep or not site.strip():
            raise FaultError(f"fault rule {text!r} is not 'site=action'")
        hits: Optional[FrozenSet[int]] = None
        probability: Optional[float] = None
        if "@" in rest:
            rest, _, raw = rest.partition("@")
            try:
                hits = frozenset(int(h) for h in raw.split(",") if h.strip())
            except ValueError:
                raise FaultError(f"bad hit list {raw!r} in {text!r}") from None
            if not hits:
                raise FaultError(f"empty hit list in {text!r}")
        elif "%" in rest:
            rest, _, raw = rest.partition("%")
            try:
                probability = float(raw)
            except ValueError:
                raise FaultError(f"bad probability {raw!r} in {text!r}") from None
        action, _, arg = rest.partition(":")
        return FaultRule(
            site=site.strip(),
            action=action.strip(),
            arg=arg.strip() or None,
            hits=hits,
            probability=probability,
        )

    def spec(self) -> str:
        return ";".join(rule.spec() for rule in self.rules)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, spec={self.spec()!r})"

    # -- bookkeeping -----------------------------------------------------------------

    def hit_counts(self) -> List[int]:
        """Raw site hits per rule (shared across forked processes)."""
        return [int(cell.value) for cell in self._hits]

    def injected_counts(self) -> List[int]:
        """Faults actually injected per rule."""
        return [int(cell.value) for cell in self._injected]

    def reset(self) -> None:
        for cell in (*self._hits, *self._injected):
            with cell.get_lock():
                cell.value = 0

    # -- firing ----------------------------------------------------------------------

    def decide(self, site_name: str) -> Optional[Outcome]:
        """Consume one hit; return the triggered outcome, or ``None``.

        The decision is a pure function of ``(seed, rule index, hit
        number)``, so any interleaving of processes/threads that produces
        the same hit numbering produces the same injections.
        """
        for index, rule in enumerate(self.rules):
            if not rule.matches(site_name):
                continue
            cell = self._hits[index]
            with cell.get_lock():
                cell.value += 1
                hit = int(cell.value)
            if rule.hits is not None and hit not in rule.hits:
                continue
            if rule.probability is not None:
                coin = random.Random(f"{self.seed}:{index}:{hit}").random()
                if coin >= rule.probability:
                    continue
            with self._injected[index].get_lock():
                self._injected[index].value += 1
            obs.counter("faults.injected").inc()
            obs.counter(f"faults.{site_name}").inc()
            obs.counter(f"faults.action.{rule.action}").inc()
            return Outcome(rule=rule, index=index, hit=hit, site=site_name)
        return None

    def execute(self, outcome: Outcome, payload=None):
        """Apply a non-delay outcome: raise, corrupt, kill, or drop."""
        rule = outcome.rule
        if rule.action == "raise":
            raise _EXCEPTIONS[rule.token](outcome.site)
        if rule.action == "drop":
            raise InjectedDrop(outcome.site)
        if rule.action == "kill":
            os._exit(rule.exit_code)
        if rule.action == "corrupt":
            if payload is None:
                raise InjectedFault(
                    outcome.site, f"corrupt fault at payload-less site {outcome.site!r}"
                )
            return self._corrupt(outcome, payload)
        raise AssertionError(f"unexecutable action {rule.action!r}")  # pragma: no cover

    def apply(self, site_name: str, payload=None):
        """Synchronous site body: decide and execute (blocking sleep for delay)."""
        outcome = self.decide(site_name)
        if outcome is None:
            return payload
        if outcome.rule.action == "delay":
            time.sleep(outcome.rule.delay_s)
            return payload
        return self.execute(outcome, payload)

    def _corrupt(self, outcome: Outcome, payload: bytes) -> bytes:
        """Flip a few bytes, positions/values derived from the seed."""
        data = bytearray(payload)
        if not data:
            return bytes(data)
        rng = random.Random(f"{self.seed}:{outcome.index}:{outcome.hit}:corrupt")
        for position in rng.sample(range(len(data)), min(CORRUPT_BYTES, len(data))):
            data[position] ^= rng.randrange(1, 256)  # non-zero: guaranteed change
        return bytes(data)


# -- the armed plan (module-global, like the obs registry) -----------------------------

_armed: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, if any."""
    return _armed


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan``: every ``site()`` call now consults it."""
    global _armed
    _armed = plan
    return plan


def disarm() -> None:
    """Return every site to its zero-cost no-op state."""
    global _armed
    _armed = None


@contextlib.contextmanager
def armed(plan: FaultPlan):
    """Arm ``plan`` for the duration of a ``with`` block (test helper)."""
    global _armed
    previous = _armed
    arm(plan)
    try:
        yield plan
    finally:
        _armed = previous


def site(name: str, payload=None):
    """A named injection point.  Returns ``payload`` (possibly corrupted).

    Disarmed cost is one global load and an identity check; call sites on
    hot paths need no gating of their own.
    """
    plan = _armed
    if plan is None:
        return payload
    return plan.apply(name, payload)


async def site_async(name: str, payload=None):
    """:func:`site` for event-loop call sites: delays await ``asyncio.sleep``
    so concurrent tasks (and per-request deadlines) keep running."""
    plan = _armed
    if plan is None:
        return payload
    outcome = plan.decide(name)
    if outcome is None:
        return payload
    if outcome.rule.action == "delay":
        await asyncio.sleep(outcome.rule.delay_s)
        return payload
    return plan.execute(outcome, payload)


def arm_from_env(environ=os.environ) -> Optional[FaultPlan]:
    """Arm from ``$REPRO_FAULTS`` when set; returns the armed plan."""
    value = environ.get(FAULTS_ENV, "").strip()
    if not value:
        return None
    return arm(FaultPlan.from_env(value))
