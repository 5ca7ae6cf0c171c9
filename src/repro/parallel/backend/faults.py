"""Deterministic fault injection for the mp backend (chaos seam).

A :class:`FaultPlan` describes, ahead of time, exactly which transport
messages and worker steps to sabotage: delays (stragglers, stalled
mailbox deliveries) and whole-rank kills — the faults a shared-memory
gang can have, as a run over reliable links fails through a slow rank, a
dead rank or a timeout.  The plan is installed per process from the
``REPRO_FAULT_PLAN`` environment variable (inherited by spawn children,
so the parent's setting reaches every worker) and is **off by default**
— with no plan installed every instrumentation point costs one
module-global load plus an ``is None`` check, the same budget as
:mod:`repro.parallel.backend.events`.

Design rules (DESIGN decision #11):

- **Deterministic.**  Faults are matched on protocol coordinates (channel
  ``src``/``dst`` + message ``seq``, or ``rank`` + training ``step``),
  never on wall time or randomness, so a chaos run is exactly
  reproducible and its DYN003 replay is meaningful.
- **Typed errors, never hangs.**  A delay slows the run and changes no
  number; a killed rank, or a delay longer than the peer's timeout,
  surfaces through the transport's deadline machinery as the existing
  typed :class:`~repro.parallel.backend.base.BackendError` naming the
  rank.

``REPRO_FAULT_PLAN`` accepts three forms:

- inline JSON (value starts with ``{``)::

      {"faults": [
        {"kind": "delay", "rank": 1, "step": 0, "seconds": 0.02},
        {"kind": "delay", "src": 0, "dst": 2, "seq": 1, "seconds": 0.01},
        {"kind": "kill", "rank": 3, "step": 2}]}

- the name of a builtin plan (``mixed``, ``straggler``);
- a path to a JSON file with the same document shape.

The plan is outside input, so a spec that could never fire is rejected at
parse with a ``ValueError`` naming the fault's index and the rule it
breaks: unknown keys, a channel fault without two distinct ``src``/``dst``, a
step fault without both ``rank`` and ``step``, mixed addressing, ``seq``
or ``times`` below 1, a negative rank or step, ``seconds`` negative or
not finite.  Several faults planned for one ``(rank, step)``, or for one
channel message, all fire, in list order (a ``kill`` ends the list).
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field as _dc_field

__all__ = [
    "ENV_VAR",
    "KILL_EXIT_CODE",
    "BUILTIN_PLANS",
    "FaultSpec",
    "FaultPlan",
    "active",
    "install",
    "uninstall",
    "maybe_install_from_env",
]

#: Fault-plan source; presence turns injection on in every rank.
ENV_VAR = "REPRO_FAULT_PLAN"

#: Exit code a worker uses for an injected kill, so tests and the parent
#: can tell a planned death from a genuine crash.
KILL_EXIT_CODE = 117

_KINDS = ("delay", "kill")


@dataclass
class FaultSpec:
    """One planned fault.

    A channel ``delay`` names a mailbox by ``src``/``dst`` global rank
    and a 1-based message ``seq``; step faults (``kill``/step ``delay``)
    name a global ``rank`` and a 0-based training ``step``.  ``times``
    makes the same fault fire on the first N matching messages or steps.
    """

    kind: str
    src: int | None = None
    dst: int | None = None
    seq: int | None = None
    rank: int | None = None
    step: int | None = None
    seconds: float = 0.0
    times: int = 1
    remaining: int = _dc_field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; valid: {_KINDS}")
        for name, low in (("src", 0), ("dst", 0), ("rank", 0), ("step", 0),
                          ("seq", 1), ("times", 1)):
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < low):
                raise ValueError(
                    f"{name} must be an integer >= {low}, got {value!r}")
        if not 0 <= self.seconds < math.inf:
            raise ValueError(
                f"seconds must be a finite number >= 0, got {self.seconds!r}")
        channel = not (self.src is None and self.dst is None
                       and self.seq is None)
        if channel:
            if self.kind == "kill":
                raise ValueError("'kill' takes rank/step, not src/dst/seq")
            if self.src is None or self.dst is None or self.src == self.dst:
                raise ValueError(
                    "a channel fault needs both src and dst, and src != dst")
            if self.rank is not None:
                raise ValueError("a channel fault takes src/dst, not rank")
        elif self.rank is None or self.step is None:
            raise ValueError(
                f"a step {self.kind!r} fault needs both rank and step")
        self.remaining = self.times


class FaultPlan:
    """A parsed plan plus the mutable per-process injection state.

    ``step`` tracks the worker's current training step (set by the
    worker loop before executing each command) so channel faults can
    optionally be scoped to a step.  ``injected`` counts fired faults by
    kind — tests assert on it to prove the plan actually bit.
    """

    def __init__(self, doc: dict):
        unknown = set(doc) - {"faults"}
        if unknown:
            raise ValueError(f"unknown fault-plan key(s) {sorted(unknown)}")
        self.faults = []
        for index, spec in enumerate(doc.get("faults", ())):
            try:
                self.faults.append(FaultSpec(**spec))
            except (TypeError, ValueError) as exc:  # TypeError: unknown key
                raise ValueError(f"fault {index}: {exc}") from None
        self.step: int | None = None
        self.injected: Counter[str] = Counter()

    def set_step(self, step: int) -> None:
        self.step = step

    def _take(self, spec: FaultSpec) -> FaultSpec:
        spec.remaining -= 1
        self.injected[spec.kind] += 1
        return spec

    def _step_matches(self, spec: FaultSpec) -> bool:
        return spec.step is None or spec.step == self.step

    def take_send_fault(self, src: int, dst: int, seq: int) -> FaultSpec | None:
        """A pending channel ``delay`` for this message, if any."""
        # Parsing left step faults without src/dst, so a src match alone
        # picks channel faults.
        for spec in self.faults:
            if (spec.remaining > 0 and spec.src == src and spec.dst == dst
                    and (spec.seq is None or spec.seq == seq)
                    and self._step_matches(spec)):
                return self._take(spec)
        return None

    def take_step_fault(self, rank: int, step: int) -> FaultSpec | None:
        """A pending ``kill``/step-``delay`` for this rank at this step."""
        # Parsing left channel faults without a rank and step faults without
        # src/dst, so the addressing alone tells the two apart.
        for spec in self.faults:
            if (spec.remaining > 0 and spec.rank == rank
                    and spec.step == step):
                return self._take(spec)
        return None


#: Named plans for CI and the chaos tests. ``mixed`` slows one step and
#: one boundary message on a tp=2, pp>=2 layout (ranks 0/1 are stage 0,
#: rank 2 starts stage 1); ``straggler`` just slows one rank.
BUILTIN_PLANS: dict[str, dict] = {
    "mixed": {
        "faults": [
            {"kind": "delay", "rank": 1, "step": 0, "seconds": 0.02},
            {"kind": "delay", "src": 0, "dst": 2, "seq": 1, "seconds": 0.01},
        ],
    },
    "straggler": {
        "faults": [
            {"kind": "delay", "rank": 1, "step": 0, "seconds": 0.05},
        ],
    },
}

_ACTIVE: FaultPlan | None = None


def active() -> FaultPlan | None:
    """The installed plan, or ``None`` (the common, zero-cost case)."""
    return _ACTIVE


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide fault source and return it."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def parse_plan(value: str) -> FaultPlan:
    """Parse a plan from inline JSON, a builtin name, or a file path."""
    value = value.strip()
    if value.startswith("{"):
        return FaultPlan(json.loads(value))
    if value in BUILTIN_PLANS:
        return FaultPlan(BUILTIN_PLANS[value])
    if os.path.isfile(value):
        with open(value, "r", encoding="utf-8") as fh:
            return FaultPlan(json.load(fh))
    raise ValueError(
        f"bad {ENV_VAR}: {value!r} is neither inline JSON, a builtin plan "
        f"({sorted(BUILTIN_PLANS)}), nor a readable file")


def maybe_install_from_env() -> FaultPlan | None:
    """Install the plan named by ``$REPRO_FAULT_PLAN``, if set.

    Returns ``None`` (and installs nothing) when the variable is unset —
    the production default.  Each mp worker calls this once at startup;
    the env var is inherited through the spawn context, so setting it in
    the parent before backend construction arms every rank.
    """
    value = os.environ.get(ENV_VAR)
    if not value:
        return None
    return install(parse_plan(value))
