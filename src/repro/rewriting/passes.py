"""Optimization pass pipeline: named passes, scripts and the PassManager.

This is the flow layer on top of the individual transforms, in the
spirit of ABC scripts (``resyn2``: ``b; rw; rf; b; rw; rwz; b; rfz;
rwz; b``) and mockturtle flows: a *script* is a semicolon-separated
sequence of pass names, the :class:`PassManager` parses it, runs every
pass in order on a network, collects per-pass statistics (gate count,
depth, runtime, pass-specific counters) and can verify each step -- or
the whole flow -- against the input network.

The pipeline is **network-generic**: every pass declares which network
kind it accepts (``aig``, ``klut`` or ``any``) and which kind it
produces, scripts are kind-checked at parse time against the
:class:`~repro.networks.protocol.LogicNetwork` kinds, and the ``map``
pass switches the flow from the AIG to the mapped k-LUT network, where
the mapped-network passes (``lutmffc``) operate.  A script like
``"rw; fraig; map; lutmffc; cleanup"`` therefore runs rewriting and
sweeping on the AIG, maps, and resynthesises the mapped network -- all
in one flow with one statistics report.

Registered passes
-----------------

===========  =======  =====================================================
``rw``       aig      DAG-aware 4-cut rewriting (:func:`repro.rewriting.rewrite`)
``rwz``      aig      rewriting, zero-gain replacements allowed
``rf``       aig      MFFC refactoring (:func:`repro.rewriting.refactor`)
``rfz``      aig      refactoring, zero-gain replacements allowed
``b``        aig      AND-tree balancing (:func:`repro.rewriting.balance`)
``fraig``    aig      baseline SAT sweeping (:class:`repro.sweeping.FraigSweeper`)
``stp``      aig      STP-enhanced SAT sweeping (:class:`repro.sweeping.StpSweeper`)
``cp``       aig      SAT-backed constant propagation
``choice``   aig      structural choice computation (``dch``-style:
                      :func:`repro.rewriting.choices.compute_choices`);
                      a following ``map`` selects among the recorded
                      implementations automatically
``map``      aig>klut multi-pass k-LUT technology mapping
                      (:func:`repro.networks.mapping.technology_map`;
                      choice-aware on a choice-carrying network)
``lutmffc``  klut     mapped-network MFFC resynthesis
                      (:func:`repro.rewriting.klut_resyn.lut_resynthesize`)
``lutmffcz`` klut     LUT resynthesis, zero-gain replacements allowed
``cleanup``  any      dangling-node removal (kind-generic
                      :func:`repro.networks.transforms.cleanup_dangling`)
``ppart``    aig      partition-parallel meta-pass: ``ppart(rw;rf,
                      jobs=4)`` decomposes the AIG into boundary-frozen
                      regions, optimizes them across a worker pool and
                      merges the results back
                      (:func:`repro.partition.partition_optimize`)
===========  =======  =====================================================

plus the named scripts ``resyn`` / ``resyn2`` (ABC's classical recipes),
``rwsweep`` (``rw; fraig; rw; fraig``, the interleaved
rewriting/sweeping flow the paper-style harness uses as a pre-pass),
``maplut`` (``map; lutmffc; cleanup``, the mapped-network optimization
flow) and ``choicemap`` (``choice; map``, choice-aware mapping).  Long
names (``rewrite``, ``balance``, ``refactor``, ``constprop``,
``lutresyn``, ``dch``) are accepted as aliases.

Verification
------------

AIG-to-AIG steps are checked with the combinational equivalence checker
(complete).  As soon as a flow crosses into the mapped network, the
check against the AIG-typed reference is word-parallel simulation --
exhaustive for networks of up to 10 inputs, 256 random patterns
otherwise -- mirroring how the mapper itself is verified.  A CEC that
gives up at its conflict limit is reported as *unknown*
(``verify_status``), never as a failure or a pass.

Transactional execution
-----------------------

Every pass runs against a :class:`~repro.resilience.NetworkCheckpoint`
when the flow is transactional (``on_error="rollback"`` or
``verify_commit=True``): a pass that raises, exceeds its
:class:`~repro.resilience.Budget`, or fails the verification-gated
commit is rolled back to the last good network, marked ``failed`` in
its :class:`PassStatistics` with the reason, and the flow continues --
except on flow-deadline exhaustion, where the remaining passes are
marked ``skipped`` and the last good network is returned immediately.
With the default ``on_error="raise"`` the error propagates to the
caller instead (current behaviour).  ``pass_timeout`` gives every pass
its own wall-clock sub-budget; a per-pass timeout aborts only that
pass.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Sequence, Union

from ..networks.aig import Aig
from ..networks.klut import KLutNetwork
from ..networks.protocol import network_kind
from ..networks.transforms import cleanup_dangling
from ..resilience import (
    Budget,
    BudgetExceeded,
    NetworkCheckpoint,
    VerificationFailed,
    simulation_equivalent,
)
from ..sat.circuit import CircuitSolver
from ..simulation.patterns import PatternSet
from ..sweeping.cec import check_combinational_equivalence
from ..sweeping.constant_prop import propagate_constant_candidates
from ..sweeping.fraig import FraigSweeper
from ..sweeping.stats import SweepStatistics
from ..sweeping.stp_sweeper import StpSweeper
from .balance import balance
from .klut_resyn import lut_resynthesize
from .library import RewriteLibrary
from .refactor import refactor
from .rewrite import rewrite

__all__ = [
    "PassStatistics",
    "FlowStatistics",
    "PassManager",
    "PpartSpec",
    "optimize",
    "parse_script",
    "parse_ppart",
    "pass_base_name",
    "validate_script",
    "PASS_NAMES",
    "PASS_KINDS",
    "NAMED_SCRIPTS",
]

#: Any network the pipeline operates on.
Network = Union[Aig, KLutNetwork]

#: Expansions of the named multi-pass scripts (applied recursively).
NAMED_SCRIPTS: dict[str, str] = {
    "resyn": "b; rw; rwz; b; rwz; b",
    "resyn2": "b; rw; rf; b; rw; rwz; b; rfz; rwz; b",
    "rwsweep": "rw; fraig; rw; fraig",
    "maplut": "map; lutmffc; cleanup",
    "choicemap": "choice; map",
}

#: Long-name aliases for the single passes.
_ALIASES: dict[str, str] = {
    "rewrite": "rw",
    "balance": "b",
    "refactor": "rf",
    "constprop": "cp",
    "trim": "cleanup",
    "lutresyn": "lutmffc",
    "dch": "choice",
}

#: The canonical single-pass names.
PASS_NAMES: tuple[str, ...] = (
    "rw",
    "rwz",
    "rf",
    "rfz",
    "b",
    "fraig",
    "stp",
    "cp",
    "choice",
    "map",
    "lutmffc",
    "lutmffcz",
    "cleanup",
)

#: Network-kind signature of every pass: ``(input_kind, output_kind)``
#: with input in {"aig", "klut", "any"} and output in {"aig", "klut",
#: "same"}.  ``validate_script`` threads the kind through a script.
PASS_KINDS: dict[str, tuple[str, str]] = {
    "rw": ("aig", "aig"),
    "rwz": ("aig", "aig"),
    "rf": ("aig", "aig"),
    "rfz": ("aig", "aig"),
    "b": ("aig", "aig"),
    "fraig": ("aig", "aig"),
    "stp": ("aig", "aig"),
    "cp": ("aig", "aig"),
    "choice": ("aig", "aig"),
    "map": ("aig", "klut"),
    "lutmffc": ("klut", "klut"),
    "lutmffcz": ("klut", "klut"),
    "cleanup": ("any", "same"),
    "ppart": ("aig", "aig"),
}


def _split_tokens(script: str) -> list[str]:
    """Split a script on ``;`` / ``,`` / newlines at parenthesis depth 0.

    Separators inside a ``ppart(...)`` argument list stay with their
    token; unbalanced parentheses raise ``ValueError``.
    """
    tokens: list[str] = []
    current: list[str] = []
    depth = 0
    for character in script:
        if character == "(":
            depth += 1
        elif character == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced ')' in script {script!r}")
        if character in ";,\n" and depth == 0:
            token = "".join(current).strip().lower()
            if token:
                tokens.append(token)
            current = []
        else:
            current.append(character)
    if depth != 0:
        raise ValueError(f"unbalanced '(' in script {script!r}")
    token = "".join(current).strip().lower()
    if token:
        tokens.append(token)
    return tokens


def pass_base_name(name: str) -> str:
    """The registered pass behind a (possibly parameterised) token.

    Plain passes are their own base; a meta-pass token like
    ``ppart(rw;rf,jobs=4)`` resolves to ``ppart``.
    """
    return name.split("(", 1)[0].strip()


def parse_script(script: str | Sequence[str]) -> list[str]:
    """Expand a script into the flat list of canonical pass names.

    Accepts a semicolon/comma/newline-separated string (``"rw; fraig"``)
    or an already-split sequence; named scripts and aliases expand
    recursively.  ``ppart(...)`` meta-pass tokens are validated and
    canonicalised but kept as single tokens (their inner script runs
    per partition, not in this flow).  Unknown names raise
    ``ValueError``.
    """
    if isinstance(script, str):
        tokens = _split_tokens(script)
    else:
        tokens = [str(t).strip().lower() for t in script if str(t).strip()]
    result: list[str] = []
    for token in tokens:
        if "(" in token:
            if pass_base_name(token) == "ppart":
                result.append(parse_ppart(token).canonical())
                continue
            raise ValueError(
                f"unknown pass {token!r}; only the ppart meta-pass takes arguments"
            )
        if token == "ppart":
            raise ValueError(
                "ppart needs arguments: ppart(<aig passes>, jobs=N"
                "[, max_gates=M, strategy=window|level, merge=substitute|choice])"
            )
        token = _ALIASES.get(token, token)
        if token in NAMED_SCRIPTS:
            result.extend(parse_script(NAMED_SCRIPTS[token]))
        elif token in PASS_NAMES:
            result.append(token)
        else:
            known = sorted(set(PASS_NAMES) | set(NAMED_SCRIPTS) | set(_ALIASES) | {"ppart(...)"})
            raise ValueError(f"unknown pass {token!r}; known passes/scripts: {', '.join(known)}")
    if not result:
        raise ValueError("empty optimization script")
    return result


@dataclass(frozen=True)
class PpartSpec:
    """Parsed form of one ``ppart(...)`` meta-pass token.

    ``passes`` is the flat canonical per-region script (aig-to-aig
    passes only, named scripts already expanded); the remaining fields
    are the partitioning knobs.  :meth:`canonical` renders the token in
    its normal form, which :func:`parse_script` emits -- so a parsed
    script round-trips through join / re-parse unchanged.
    """

    passes: tuple[str, ...]
    jobs: int = 1
    max_gates: int = 400
    strategy: str = "window"
    merge: str = "substitute"
    #: Per-region SAT solver window (``window=N``): how many sweep
    #: windows share one persistent solver inside each worker.  ``None``
    #: keeps the sweepers' own default.
    window: int | None = None

    def canonical(self) -> str:
        # The optional window is emitted only when set, so scripts
        # written before it existed render byte-identically.
        options = (
            f",jobs={self.jobs},max_gates={self.max_gates},"
            f"strategy={self.strategy},merge={self.merge}"
        )
        if self.window is not None:
            options += f",window={self.window}"
        return f"ppart({';'.join(self.passes)}{options})"


def _ppart_int(key: str, value: str, minimum: int) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise ValueError(f"ppart option {key}={value!r} is not an integer") from None
    if parsed < minimum:
        raise ValueError(f"ppart option {key} must be >= {minimum}, got {parsed}")
    return parsed


def parse_ppart(token: str) -> PpartSpec:
    """Parse and validate one ``ppart(...)`` token.

    Grammar: ``ppart(<passes and key=value options separated by , or
    ;>)`` where the passes form the per-region script (aliases and
    named scripts expand as usual, but only plain ``aig -> aig`` passes
    may remain -- the regions a worker optimizes are AIGs with a frozen
    boundary) and the options are ``jobs`` (worker count), ``max_gates``
    (region size cap), ``strategy`` (``window`` / ``level``), ``merge``
    (``substitute`` / ``choice``) and ``window`` (per-region solver
    window, >= 1).
    Nested ``ppart`` is rejected.
    """
    text = token.strip().lower()
    if pass_base_name(text) != "ppart":
        raise ValueError(f"not a ppart token: {token!r}")
    rest = text[len("ppart") :].strip()
    if not (rest.startswith("(") and rest.endswith(")")):
        raise ValueError(
            "ppart needs arguments: ppart(<aig passes>, jobs=N"
            "[, max_gates=M, strategy=window|level, merge=substitute|choice])"
        )
    inner = rest[1:-1]
    if "(" in inner or ")" in inner:
        raise ValueError("ppart arguments cannot nest parentheses (nested ppart is not allowed)")
    pass_tokens: list[str] = []
    jobs, max_gates, strategy, merge = 1, 400, "window", "substitute"
    window: int | None = None
    for part in (p.strip() for p in inner.replace(";", ",").split(",")):
        if not part:
            continue
        if "=" in part:
            key, _, value = part.partition("=")
            key, value = key.strip(), value.strip()
            if key == "jobs":
                jobs = _ppart_int(key, value, 1)
            elif key == "max_gates":
                max_gates = _ppart_int(key, value, 2)
            elif key == "strategy":
                if value not in ("window", "level"):
                    raise ValueError(f"ppart strategy must be 'window' or 'level', got {value!r}")
                strategy = value
            elif key == "merge":
                if value not in ("substitute", "choice"):
                    raise ValueError(f"ppart merge must be 'substitute' or 'choice', got {value!r}")
                merge = value
            elif key == "window":
                window = _ppart_int(key, value, 1)
            else:
                raise ValueError(
                    f"unknown ppart option {key!r} "
                    "(expected jobs, max_gates, strategy, merge, window)"
                )
        else:
            pass_tokens.append(part)
    if not pass_tokens:
        raise ValueError("ppart needs at least one pass to run per region, e.g. ppart(rw;rf, jobs=4)")
    passes = parse_script(pass_tokens)
    for name in passes:
        base = pass_base_name(name)
        if base == "ppart":
            raise ValueError("ppart cannot be nested inside ppart")
        if PASS_KINDS[base] != ("aig", "aig"):
            raise ValueError(
                f"pass {name!r} cannot run inside ppart (plain aig-to-aig passes only)"
            )
    return PpartSpec(
        tuple(passes),
        jobs=jobs,
        max_gates=max_gates,
        strategy=strategy,
        merge=merge,
        window=window,
    )


def validate_script(passes: Sequence[str], start_kind: str = "aig") -> str:
    """Kind-check a parsed script; returns the kind of the final network.

    Each pass's declared input kind must match the kind the previous
    passes produce (``"rw"`` cannot follow ``"map"``; ``"lutmffc"``
    cannot run before it).  Parameterised ``ppart(...)`` tokens check as
    their registered base pass.  Raises ``ValueError`` with the
    offending pass and the kind mismatch spelled out.
    """
    kind = start_kind
    for name in passes:
        kinds = PASS_KINDS.get(pass_base_name(name))
        if kinds is None:
            raise ValueError(f"unknown pass {name!r}; known passes: {', '.join(PASS_NAMES)}")
        input_kind, output_kind = kinds
        if input_kind != "any" and input_kind != kind:
            hint = " (run 'map' first)" if input_kind == "klut" and kind == "aig" else ""
            raise ValueError(
                f"pass {name!r} expects a {input_kind} network but the flow "
                f"produces a {kind} network at this point{hint}"
            )
        if output_kind != "same":
            kind = output_kind
    return kind


@dataclass
class PassStatistics:
    """Statistics of one executed pass.

    ``gates_before`` / ``gates_after`` count the network's internal
    gates in its own representation -- AND nodes on an AIG, LUTs on a
    mapped network; ``kind`` records the representation the pass
    produced.  ``status`` is ``"ok"`` for a committed pass, ``"failed"``
    for one that raised / exceeded its budget / failed verification and
    was rolled back, and ``"skipped"`` for one never run (flow budget
    already exhausted, or its required network kind unavailable after an
    earlier rollback); ``failure`` carries the human-readable reason.
    ``verify_status`` is ``"ok"`` / ``"fail"`` / ``"unknown"`` when a
    per-pass verification ran (``unknown`` = the CEC gave up at its
    conflict limit -- explicitly not a failure).
    """

    name: str
    gates_before: int = 0
    gates_after: int = 0
    depth_before: int = 0
    depth_after: int = 0
    total_time: float = 0.0
    verified: bool | None = None
    kind: str = "aig"
    status: str = "ok"
    failure: str | None = None
    verify_status: str | None = None
    details: dict[str, float] = field(default_factory=dict)
    #: Per-region breakdown of a ``ppart`` meta-pass (``None`` for every
    #: other pass): one dict per region with its boundary sizes, merge
    #: status and the worker's per-partition SAT counters.
    partitions: list[dict[str, object]] | None = None

    @property
    def gate_reduction(self) -> float:
        """Fraction of gates removed by this pass."""
        if self.gates_before == 0:
            return 0.0
        return 1.0 - self.gates_after / self.gates_before

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable view (for the future service layer)."""
        result: dict[str, object] = {
            "name": self.name,
            "status": self.status,
            "failure": self.failure,
            "kind": self.kind,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "depth_before": self.depth_before,
            "depth_after": self.depth_after,
            "total_time": self.total_time,
            "verified": self.verified,
            "verify_status": self.verify_status,
            "details": dict(self.details),
        }
        if self.partitions is not None:
            result["partitions"] = [dict(region) for region in self.partitions]
        return result

    def __str__(self) -> str:
        if self.verify_status is not None:
            labels = {"ok": "ok", "fail": "FAIL", "unknown": "unknown"}
            verified = f"  cec={labels.get(self.verify_status, self.verify_status)}"
        elif self.verified is not None:
            verified = f"  cec={'ok' if self.verified else 'FAIL'}"
        else:
            verified = ""
        unit = "" if self.kind == "aig" else f" {self.kind}"
        state = "" if self.status == "ok" else f"  [{self.status}: {self.failure}]"
        return (
            f"{self.name:<8} gates {self.gates_before:>6} -> {self.gates_after:<6} "
            f"depth {self.depth_before:>3} -> {self.depth_after:<3} "
            f"{self.total_time:7.3f}s{unit}{verified}{state}"
        )


@dataclass
class FlowStatistics:
    """Statistics of one full script run."""

    script: str
    passes: list[PassStatistics] = field(default_factory=list)
    gates_before: int = 0
    gates_after: int = 0
    depth_before: int = 0
    depth_after: int = 0
    total_time: float = 0.0
    verified: bool | None = None
    verify_status: str | None = None
    kind_before: str = "aig"
    kind_after: str = "aig"
    #: True when the flow's wall-clock budget ran out and the remaining
    #: passes were skipped (the returned network is the last good one).
    budget_exhausted: bool = False

    @property
    def gate_reduction(self) -> float:
        """Fraction of gates removed by the whole flow."""
        if self.gates_before == 0:
            return 0.0
        return 1.0 - self.gates_after / self.gates_before

    @property
    def failed_passes(self) -> list[PassStatistics]:
        """The passes that failed and were rolled back."""
        return [stats for stats in self.passes if stats.status == "failed"]

    @property
    def skipped_passes(self) -> list[PassStatistics]:
        """The passes that never ran."""
        return [stats for stats in self.passes if stats.status == "skipped"]

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable view (for the future service layer)."""
        return {
            "script": self.script,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "depth_before": self.depth_before,
            "depth_after": self.depth_after,
            "total_time": self.total_time,
            "verified": self.verified,
            "verify_status": self.verify_status,
            "kind_before": self.kind_before,
            "kind_after": self.kind_after,
            "budget_exhausted": self.budget_exhausted,
            "passes": [stats.as_dict() for stats in self.passes],
        }

    def __str__(self) -> str:
        crossing = "" if self.kind_before == self.kind_after else f" [{self.kind_before} -> {self.kind_after}]"
        lines = [
            f"script {self.script!r}: gates {self.gates_before} -> {self.gates_after} "
            f"({100 * self.gate_reduction:.1f}% reduction), depth {self.depth_before} -> "
            f"{self.depth_after}, total {self.total_time:.3f}s{crossing}"
        ]
        lines.extend(f"  {stats}" for stats in self.passes)
        if self.budget_exhausted:
            lines.append("  flow budget exhausted: remaining passes skipped")
        if self.verify_status is not None:
            labels = {"ok": "ok", "fail": "FAIL", "unknown": "unknown"}
            lines.append(f"  equivalence vs input: {labels.get(self.verify_status, self.verify_status)}")
        elif self.verified is not None:
            lines.append(f"  equivalence vs input: {'ok' if self.verified else 'FAIL'}")
        return "\n".join(lines)


def _po_signatures(network: Network, patterns: PatternSet) -> list[int]:
    """Word-parallel PO signatures of either network kind."""
    from ..simulation.bitwise import (
        aig_po_signatures,
        klut_po_signatures,
        simulate_aig,
        simulate_klut_minterm,
    )

    if isinstance(network, KLutNetwork):
        return klut_po_signatures(network, simulate_klut_minterm(network, patterns))
    return aig_po_signatures(network, simulate_aig(network, patterns))


def _networks_equivalent(reference: Network, candidate: Network) -> bool | None:
    """Kind-generic equivalence verdict between two pipeline networks.

    Two AIGs go through the (complete) CEC miter; any pair involving a
    mapped network is compared by word-parallel simulation, exhaustively
    when the input count allows it and on 256 random patterns otherwise.
    Returns ``True`` / ``False`` for a definite verdict and ``None``
    when the CEC gave up at its conflict limit -- "unknown" must never
    be conflated with "not equivalent".
    """
    if isinstance(reference, Aig) and isinstance(candidate, Aig):
        outcome = check_combinational_equivalence(reference, candidate)
        if outcome.status == "undetermined":
            return None
        return outcome.equivalent
    if reference.num_pis != candidate.num_pis:
        return False
    if reference.num_pis <= 10:
        patterns = PatternSet.exhaustive(reference.num_pis)
    else:
        patterns = PatternSet.random(reference.num_pis, 256, seed=1)
    return _po_signatures(reference, patterns) == _po_signatures(candidate, patterns)


def _verify_status(verdict: bool | None) -> str:
    """Map a tri-state equivalence verdict onto its status label."""
    if verdict is None:
        return "unknown"
    return "ok" if verdict else "fail"


class PassManager:
    """Parse an optimization script and run it pass by pass.

    Parameters
    ----------
    script:
        Pass names separated by ``;`` (or a sequence), e.g.
        ``"rw; fraig; rw; fraig"``, ``"resyn2"``,
        ``"map; lutmffc; cleanup"``.  The script is kind-checked at
        construction time (an AIG pass cannot follow ``map``).
    seed, num_patterns, conflict_limit:
        Forwarded to the SAT-based passes (``fraig``, ``stp``, ``cp``).
    window_size:
        Persistent-solver window size forwarded to the sweeping passes
        (``fraig``, ``stp``, ``choice``): ``None`` keeps the default
        fresh-encode behaviour, ``1`` keeps one ``CircuitSolver`` alive
        for the whole sweep, ``N`` retires it every ``N`` windows.  The
        partition worker sets this so each region job holds exactly one
        solver window for its whole inner script.
    lut_size, cut_limit:
        LUT size and priority-cut limit of the ``map`` pass; the
        mapped-network passes inherit ``lut_size`` as their fan-in
        bound.  When ``lut_size`` is omitted, ``map`` uses k = 6 and the
        mapped-network passes bound themselves by the network's own
        maximum fan-in -- so a klut-only script on an externally mapped
        network never creates LUTs wider than the mapper did.
    verify_each:
        Verify every pass against its input network (CEC between AIGs,
        word-parallel simulation once the flow is mapped) and record the
        verdict in that pass's statistics (slow; meant for debugging and
        the fuzz tests).
    library:
        Shared :class:`~repro.rewriting.library.RewriteLibrary`; defaults
        to the process-wide library.
    on_error:
        ``"raise"`` (default) propagates a failing pass's error to the
        caller; ``"rollback"`` restores the last good network, records
        the pass as ``failed`` with the reason, and continues the flow
        (see the module docstring).
    verify_commit:
        Gate every pass's commit on a word-parallel simulation
        cross-check against its input (exhaustive for up to 10 PIs, 256
        random patterns otherwise); a mismatch rolls the pass back (with
        ``on_error="rollback"``) or raises
        :class:`~repro.resilience.VerificationFailed`.
    pass_timeout:
        Per-pass wall-clock ceiling in seconds; implemented as a
        deadline sub-budget, so it composes with a flow
        :class:`~repro.resilience.Budget` (the tighter deadline wins)
        and exceeding it aborts only the offending pass.
    partition_executor:
        :class:`~repro.partition.RegionExecutor` used by ``ppart(...)``
        meta-passes; defaults to inline execution for ``jobs=1`` and the
        process-wide warmed worker pool otherwise.
    """

    def __init__(
        self,
        script: str | Sequence[str] = "resyn2",
        seed: int = 1,
        num_patterns: int = 64,
        conflict_limit: int | None = 10_000,
        window_size: int | None = None,
        lut_size: int | None = None,
        cut_limit: int = 8,
        verify_each: bool = False,
        library: RewriteLibrary | None = None,
        on_error: str = "raise",
        verify_commit: bool = False,
        pass_timeout: float | None = None,
        partition_executor: Any | None = None,
    ) -> None:
        self.script = script if isinstance(script, str) else "; ".join(script)
        self.passes = parse_script(script)
        # Kind-check at construction: the script must compose from at
        # least one starting kind (run() re-validates against the actual
        # input).  A klut-only script ("lutmffc; cleanup") is legal for
        # callers holding an already-mapped network.  When neither start
        # works, the aig-start error is the meaningful one: the klut
        # retry trips over the first AIG pass, not the actual problem.
        try:
            validate_script(self.passes, "aig")
        except ValueError as aig_error:
            try:
                validate_script(self.passes, "klut")
            except ValueError:
                raise aig_error from None
        if on_error not in ("raise", "rollback"):
            raise ValueError(f"on_error must be 'raise' or 'rollback', got {on_error!r}")
        self.seed = seed
        self.num_patterns = num_patterns
        self.conflict_limit = conflict_limit
        self.window_size = window_size
        self.lut_size = lut_size
        self.cut_limit = cut_limit
        self.verify_each = verify_each
        self.library = library
        self.on_error = on_error
        self.verify_commit = verify_commit
        self.pass_timeout = pass_timeout
        self.partition_executor = partition_executor

    # ------------------------------------------------------------------

    def run(
        self,
        network: Network,
        verify: bool = False,
        budget: Budget | None = None,
        on_error: str | None = None,
        progress: Callable[[PassStatistics], None] | None = None,
    ) -> tuple[Network, FlowStatistics]:
        """Run every pass of the script on (a copy of) ``network``.

        The input may be an :class:`Aig` (the usual case) or an already
        mapped :class:`KLutNetwork` (for klut-only scripts); the script
        is re-validated against the actual input kind.  With ``verify``
        the final result is checked against the input network (see the
        module docstring for the verification semantics) and the verdict
        recorded in ``FlowStatistics.verified`` / ``verify_status``.

        ``budget`` bounds the whole flow (deadline, shared conflict
        pool, mutation cap); ``on_error`` overrides the constructor's
        error policy for this run.  With ``on_error="rollback"`` the
        returned network is always derived from committed passes only --
        a failing pass is rolled back and the flow continues (or, on
        flow-deadline exhaustion, returns early with the remaining
        passes marked ``skipped``).

        ``progress`` is invoked with each pass's finalized
        :class:`PassStatistics` as soon as the pass settles (committed,
        failed or skipped) -- the hook the synthesis service streams its
        per-pass NDJSON events from.  Exceptions raised by the callback
        propagate to the caller.
        """
        policy = self.on_error if on_error is None else on_error
        if policy not in ("raise", "rollback"):
            raise ValueError(f"on_error must be 'raise' or 'rollback', got {policy!r}")
        start_kind = network_kind(network)
        validate_script(self.passes, start_kind)
        flow = FlowStatistics(
            script=self.script,
            gates_before=network.num_gates,
            depth_before=network.depth(),
            kind_before=start_kind,
        )
        start = time.perf_counter()
        transactional = policy == "rollback" or self.verify_commit
        runners = self._runners()
        current: Network = network

        def settle(stats: PassStatistics) -> None:
            flow.passes.append(stats)
            if progress is not None:
                progress(stats)
        for name in self.passes:
            base = pass_base_name(name)
            input_kind = network_kind(current)
            stats = PassStatistics(
                name=name,
                kind=input_kind,
                gates_before=current.num_gates,
                gates_after=current.num_gates,
                depth_before=current.depth(),
                depth_after=current.depth(),
            )
            if flow.budget_exhausted:
                stats.status = "skipped"
                stats.failure = "flow budget exhausted by an earlier pass"
                settle(stats)
                continue
            required_kind = PASS_KINDS[base][0]
            if required_kind != "any" and required_kind != input_kind:
                stats.status = "skipped"
                stats.failure = (
                    f"requires a {required_kind} network but the flow holds a "
                    f"{input_kind} network (an earlier pass was rolled back)"
                )
                settle(stats)
                continue
            pass_budget = budget
            if self.pass_timeout is not None:
                pass_budget = (
                    budget.with_deadline(self.pass_timeout)
                    if budget is not None
                    else Budget(wall_clock=self.pass_timeout)
                )
            checkpoint = NetworkCheckpoint(current) if transactional else None
            started = time.perf_counter()
            try:
                if pass_budget is not None:
                    pass_budget.checkpoint(name)
                observe: ContextManager[object] = (
                    pass_budget.observe_mutations() if pass_budget is not None else nullcontext()
                )
                with observe:
                    if base == "ppart":
                        result, details, partitions = self._ppart(name, current, pass_budget)
                        stats.partitions = partitions
                    else:
                        result, details = runners[name](current, pass_budget)
                stats.details = details
                stats.kind = network_kind(result)
                stats.gates_after = result.num_gates
                stats.depth_after = result.depth()
                if self.verify_each:
                    verdict = _networks_equivalent(current, result)
                    stats.verified = verdict
                    stats.verify_status = _verify_status(verdict)
                if self.verify_commit and not simulation_equivalent(
                    current, result, num_patterns=max(256, self.num_patterns), seed=self.seed
                ):
                    stats.verified = False
                    stats.verify_status = "fail"
                    raise VerificationFailed(
                        f"pass {name!r}: result is not simulation-equivalent to its input"
                    )
            except Exception as error:
                stats.total_time = time.perf_counter() - started
                stats.status = "failed"
                if isinstance(error, BudgetExceeded):
                    stats.failure = f"budget: {error}"
                elif isinstance(error, VerificationFailed):
                    stats.failure = f"verification: {error}"
                else:
                    stats.failure = f"{type(error).__name__}: {error}"
                if checkpoint is not None:
                    current = checkpoint.restore()
                if policy == "raise":
                    settle(stats)
                    raise
                # Rolled back: the pass had no effect on the network.
                stats.kind = network_kind(current)
                stats.gates_after = current.num_gates
                stats.depth_after = current.depth()
                if isinstance(error, BudgetExceeded) and budget is not None and budget.expired:
                    # The *flow* deadline is gone (not just a per-pass
                    # timeout or the conflict pool): stop running passes.
                    flow.budget_exhausted = True
                settle(stats)
                continue
            else:
                if checkpoint is not None:
                    checkpoint.commit()
                stats.total_time = time.perf_counter() - started
                current = result
                settle(stats)
        flow.gates_after = current.num_gates
        flow.depth_after = current.depth()
        flow.kind_after = network_kind(current)
        flow.total_time = time.perf_counter() - start
        if verify:
            verdict = _networks_equivalent(network, current)
            flow.verified = verdict
            flow.verify_status = _verify_status(verdict)
        return current, flow

    # ------------------------------------------------------------------

    def _runners(
        self,
    ) -> dict[str, Callable[[Network, Budget | None], tuple[Network, dict[str, float]]]]:
        return {
            "rw": lambda network, budget: self._rewrite(network, zero_gain=False),
            "rwz": lambda network, budget: self._rewrite(network, zero_gain=True),
            "rf": lambda network, budget: self._refactor(network, zero_gain=False),
            "rfz": lambda network, budget: self._refactor(network, zero_gain=True),
            "b": lambda network, budget: self._balance(network),
            "fraig": self._fraig,
            "stp": self._stp,
            "cp": self._constant_prop,
            "choice": self._choice,
            "map": self._map,
            "lutmffc": lambda network, budget: self._lut_resyn(network, zero_gain=False),
            "lutmffcz": lambda network, budget: self._lut_resyn(network, zero_gain=True),
            "cleanup": lambda network, budget: self._cleanup(network),
        }

    @staticmethod
    def _as_aig(network: Network) -> Aig:
        assert isinstance(network, Aig), "kind-checked script guarantees an AIG here"
        return network

    @staticmethod
    def _as_klut(network: Network) -> KLutNetwork:
        assert isinstance(network, KLutNetwork), "kind-checked script guarantees a k-LUT network here"
        return network

    def _rewrite(self, network: Network, zero_gain: bool) -> tuple[Network, dict[str, float]]:
        result, report = rewrite(self._as_aig(network), zero_gain=zero_gain, library=self.library)
        return result, report.as_details()

    def _refactor(self, network: Network, zero_gain: bool) -> tuple[Network, dict[str, float]]:
        result, report = refactor(self._as_aig(network), zero_gain=zero_gain)
        return result, report.as_details()

    def _balance(self, network: Network) -> tuple[Network, dict[str, float]]:
        result, report = balance(self._as_aig(network))
        return result, report.as_details()

    def _fraig(self, network: Network, budget: Budget | None) -> tuple[Network, dict[str, float]]:
        swept, stats = FraigSweeper(
            self._as_aig(network),
            num_patterns=self.num_patterns,
            seed=self.seed,
            conflict_limit=self.conflict_limit,
            window_size=self.window_size,
            budget=budget,
        ).run()
        return swept, _sweep_details(stats)

    def _stp(self, network: Network, budget: Budget | None) -> tuple[Network, dict[str, float]]:
        swept, stats = StpSweeper(
            self._as_aig(network),
            num_patterns=self.num_patterns,
            seed=self.seed,
            conflict_limit=self.conflict_limit,
            window_size=self.window_size,
            budget=budget,
        ).run()
        return swept, _sweep_details(stats)

    def _constant_prop(self, network: Network, budget: Budget | None) -> tuple[Network, dict[str, float]]:
        work = self._as_aig(network).clone()
        solver = CircuitSolver(work, conflict_limit=self.conflict_limit, budget=budget)
        patterns = PatternSet.random(work.num_pis, self.num_patterns, self.seed)
        report = propagate_constant_candidates(
            work, patterns, solver, conflict_limit=self.conflict_limit
        )
        cleaned, _literal_map = cleanup_dangling(work)
        return cleaned, {
            "proved_constant": float(report.num_proved),
            "substitutions": float(report.substitutions),
            "sat_calls": float(report.sat_calls),
        }

    def _choice(self, network: Network, budget: Budget | None) -> tuple[Network, dict[str, float]]:
        from .choices import compute_choices

        result, report = compute_choices(
            self._as_aig(network),
            num_patterns=self.num_patterns,
            seed=self.seed,
            conflict_limit=self.conflict_limit,
            window_size=self.window_size,
            library=self.library,
            budget=budget,
        )
        return result, report.as_details()

    def _map(self, network: Network, budget: Budget | None) -> tuple[Network, dict[str, float]]:
        from ..networks.mapping import technology_map

        k = self.lut_size if self.lut_size is not None else 6
        result = technology_map(
            self._as_aig(network), k=k, cut_limit=self.cut_limit, budget=budget
        )
        return result.network, result.stats.as_details()

    def _lut_resyn(self, network: Network, zero_gain: bool) -> tuple[Network, dict[str, float]]:
        result, report = lut_resynthesize(
            self._as_klut(network), k=self.lut_size, zero_gain=zero_gain
        )
        return result, report.as_details()

    def _cleanup(self, network: Network) -> tuple[Network, dict[str, float]]:
        cleaned, _node_map = cleanup_dangling(network)
        return cleaned, {"removed": float(network.num_gates - cleaned.num_gates)}

    def _ppart(
        self, token: str, network: Network, budget: Budget | None
    ) -> tuple[Network, dict[str, float], list[dict[str, object]]]:
        """Run one ``ppart(...)`` meta-pass: partition, optimize, merge back."""
        from ..partition.parallel import partition_optimize

        spec = parse_ppart(token)
        result, report = partition_optimize(
            self._as_aig(network),
            "; ".join(spec.passes),
            jobs=spec.jobs,
            max_gates=spec.max_gates,
            strategy=spec.strategy,
            merge=spec.merge,
            seed=self.seed,
            num_patterns=self.num_patterns,
            conflict_limit=self.conflict_limit,
            budget=budget,
            executor=self.partition_executor,
            # The token's own knobs win; otherwise the flow-level solver
            # window applies inside each region worker too.
            window_size=spec.window if spec.window is not None else self.window_size,
        )
        return result, report.as_details(), report.partition_dicts()


def _sweep_details(stats: SweepStatistics) -> dict[str, float]:
    """Flatten one sweep's counters into per-pass details.

    The CDCL-core counters (restarts, propagations, learned-clause GC,
    window reuse) are prefixed ``sat_`` so the service metrics can
    aggregate them across passes without knowing the sweeper type.
    """
    details = {
        "merges": float(stats.merges),
        "sat_calls": float(stats.total_sat_calls),
        "sat_time": stats.sat_time,
    }
    for key, value in stats.solver_statistics.items():
        details[f"sat_{key}"] = float(value)
    if "window_reuse_rate" in stats.extra:
        details["sat_window_reuse_rate"] = stats.extra["window_reuse_rate"]
    return details


def optimize(
    network: Network,
    script: str | Sequence[str] = "resyn2",
    verify: bool = False,
    **manager_options: Any,
) -> tuple[Network, FlowStatistics]:
    """Convenience wrapper: run one script on a network.

    ``manager_options`` are forwarded to :class:`PassManager`.  The
    result is whatever kind the script produces -- an :class:`Aig` for
    classical scripts, a :class:`KLutNetwork` for flows ending behind
    ``map`` (e.g. ``"map; lutmffc; cleanup"``).
    """
    manager = PassManager(script, **manager_options)
    return manager.run(network, verify=verify)
