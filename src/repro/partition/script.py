"""Script-level helper: wrap a flow's AIG passes into one ``ppart`` token.

``repro optimize --jobs N`` and the service's ``jobs`` job field do not
ask the user to rewrite their script: :func:`wrap_script_with_jobs`
takes the script as given, finds the maximal leading run of
partitionable passes (plain ``aig -> aig`` transforms) and folds them
into a single ``ppart(<passes>, jobs=N, ...)`` meta-pass, leaving any
trailing mapped-network flow (``map; lutmffc; ...``) untouched.  A
script that already contains an explicit ``ppart`` token is respected
and returned unchanged.
"""

from __future__ import annotations

from typing import Sequence

from ..rewriting.passes import PASS_KINDS, parse_script

__all__ = ["wrap_script_with_jobs"]


def wrap_script_with_jobs(
    script: str | Sequence[str],
    jobs: int,
    max_gates: int = 400,
    strategy: str = "window",
    merge: str = "substitute",
    window: int | None = None,
) -> tuple[str, bool]:
    """Wrap the leading AIG passes of ``script`` into a ``ppart`` token.

    Returns ``(new_script, wrapped)``; ``wrapped`` is ``False`` when
    there was nothing to partition (no leading aig-to-aig pass, or the
    script already carries an explicit ``ppart``), in which case the
    script comes back canonicalised but otherwise unchanged.  ``window``
    (per-region solver window) is emitted into the token only when set.
    Raises ``ValueError`` for invalid scripts or ``jobs < 1``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    passes = parse_script(script)
    if any(name.split("(", 1)[0] == "ppart" for name in passes):
        return "; ".join(passes), False
    prefix: list[str] = []
    rest: list[str] = []
    for position, name in enumerate(passes):
        if PASS_KINDS[name] == ("aig", "aig"):
            prefix.append(name)
        else:
            rest = passes[position:]
            break
    if not prefix:
        return "; ".join(passes), False
    options = f",jobs={jobs},max_gates={max_gates},strategy={strategy},merge={merge}"
    if window is not None:
        options += f",window={window}"
    token = f"ppart({';'.join(prefix)}{options})"
    wrapped = parse_script([token] + rest)
    return "; ".join(wrapped), True
