"""Transitive-fanin manager (Fig. 2, "Transitive fanin manager").

Algorithm 2 bounds the number of nodes inspected in the transitive fanin
of a class member when searching for a merge driver (``n = 1000`` in the
paper, line 1).  The manager answers the two questions the sweeper asks
straight from the live network, without storing any cone: "which drivers
are reachable within the budget?" and "is this merge structurally
legal?" (a driver inside the candidate's transitive fanout would create
a combinational cycle).

Incremental-engine design
-------------------------

* :meth:`TfiManager.is_legal_merge` no longer materialises the driver's
  full unbounded TFI (O(N) per candidate/driver pair).  It relies on the
  AIG's cached topological positions: a driver positioned *before* the
  candidate cannot contain it in its fanin cone, which settles the common
  sweeping case in O(1).  Otherwise a DFS from the driver runs with
  ancestor pruning -- any node positioned at or before the candidate is
  never expanded, because its entire TFI sits at strictly smaller
  positions -- so only the nodes strictly between the candidate and the
  driver in topological position are ever visited.
* :meth:`TfiManager.order_drivers` does not build the candidate's cone.
  It walks the same bounded breadth-first order and stops as soon as
  every driver has been seen, so a driver close to the candidate costs a
  handful of node visits instead of ``limit``.
"""

from __future__ import annotations

from typing import Sequence

from ..networks.aig import Aig

__all__ = ["TfiManager"]


class TfiManager:
    """Answers bounded-TFI driver ordering and merge legality for one AIG."""

    def __init__(self, aig: Aig, limit: int = 1000) -> None:
        if limit < 1:
            raise ValueError("TFI node limit must be positive")
        self.aig = aig
        self.limit = limit

    def is_legal_merge(self, candidate: int, driver: int) -> bool:
        """True if substituting ``candidate`` by ``driver`` cannot create a cycle.

        The substitution redirects the fanouts of ``candidate`` to
        ``driver``; it is structurally safe exactly when ``candidate`` is
        not in the (full) transitive fanin of ``driver``.

        Decided via cached topological positions: fanin edges strictly
        decrease position, so a driver positioned before the candidate is
        legal in O(1), and the fallback DFS from the driver prunes every
        node positioned at or before the candidate -- it visits only the
        position interval between the two nodes, never the whole cone.
        """
        if candidate == driver:
            return False
        aig = self.aig
        candidate_position = aig.topological_position(candidate)
        if aig.topological_position(driver) < candidate_position:
            return True
        stack = [driver]
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node == candidate:
                return False
            if node in seen:
                continue
            seen.add(node)
            if aig.topological_position(node) <= candidate_position:
                # Everything in this node's TFI sits at strictly smaller
                # positions than the candidate; no path can reach it.
                continue
            stack.extend(aig.gate_fanin_nodes(node))
        return True

    def order_drivers(self, candidate: int, drivers: Sequence[int]) -> list[int]:
        """Order merge drivers: bounded-TFI members first, then by node index.

        The paper inspects the TFI cones of the class members to maximise
        the quality of result; drivers that already sit in the candidate's
        bounded fanin cone are structurally closest and are tried first.

        The result equals ``sorted(drivers, key=lambda d: (d not in
        cone, d))`` with ``cone = aig.tfi([candidate], limit=limit)``, but
        the cone is never materialised: with at most one driver there is
        nothing to order, and otherwise the same breadth-first walk as
        :meth:`~repro.networks.aig.Aig.tfi` runs only until every
        driver has been seen or ``limit`` nodes were visited, whichever
        comes first.
        """
        if len(drivers) <= 1:
            return list(drivers)
        pending = set(drivers)
        # The walk of Aig.tfi, reading fanins straight from the node array.
        entries = self.aig.node_entries
        first_gate = self.aig.num_pis + 1
        seen: set[int] = set()
        frontier = [candidate]
        cursor = 0
        while cursor < len(frontier) and pending:
            node = frontier[cursor]
            cursor += 1
            if node in seen:
                continue
            seen.add(node)
            pending.discard(node)
            if len(seen) >= self.limit:
                break
            if node >= first_gate:
                entry = entries[node]
                for fanin in (entry.fanin0 >> 1, entry.fanin1 >> 1):
                    if fanin not in seen:
                        frontier.append(fanin)
        return sorted(drivers, key=lambda d: (d not in seen, d))
