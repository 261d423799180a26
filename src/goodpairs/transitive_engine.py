"""Good-pair obstructions for compositions with a transitive quotient.

A transitive quotient collapses reachability into domination: once the
out-root reaches every vertex it dominates everything outside its own
part, and dually everything outside the in-root's part dominates the
in-root.  That rigidity leaves exactly three flat obstruction shapes on
top of the generic root-component and degree failures.  `dispatch` runs
the root and degree tests for every class, and
`decide_transitive_composition` is this class's finder for the other
two: a NO, or None.  Both shapes are predicates on the flat digraph
alone and do not depend on the numbering, so the finder also runs on
the input's own rows for a non-strong quasi-transitive digraph and for
a composition over a non-strong semicomplete quotient, each of which
is a transitive composition once renumbered.

A strong quasi-transitive digraph goes to the composition finder on
its own rows.  `translate_verdict` maps a NO found on the renumbered
composition of `qt_decompose` back to the input's vertices; no engine
calls it, and the tests keep it for the reference route that `decide`
must agree with.
"""

from __future__ import annotations

from dataclasses import replace

from .branchings import BranchingPair
from .digraph import Digraph
from .semicomplete import searched_good_pair
from .verdicts import (
    MIDDLE_BLOCKED,
    TREE_SIDE,
    Verdict,
    middle_blocked_violation,
    tree_side_violation,
)


def decide_transitive_composition(flat: Digraph, u: int, v: int) -> Verdict | None:
    """The obstruction finder for a composition over a transitive
    quotient, past the shared steps of `dispatch`; `flat` is its flat
    digraph.  The two flat shapes are each a NO, else None."""
    if u != v:
        if middle_blocked_violation(flat, u, v) is None:
            return Verdict(yes=False, u=u, v=v, reason=MIDDLE_BLOCKED)
        for side in ("out", "in"):
            if tree_side_violation(flat, u, v, side) is None:
                return Verdict(yes=False, u=u, v=v, reason=TREE_SIDE, side=side)
    return None


def construct_transitive_pair(flat: Digraph, u: int, v: int) -> BranchingPair:
    """A verified pair for a transitive composition that is not blocked,
    once the greedy missed: the search pair of
    `semicomplete.searched_good_pair`, as in every other class.  No
    engine calls it; bench/tracer.py reads its span.
    """
    return searched_good_pair(flat, u, v)


def translate_verdict(order, verdict: Verdict, u: int, v: int) -> Verdict:
    """A NO of the composition finder on a renumbered composition,
    relabelled through order[inner vertex] = flat vertex and rooted at
    (u, v).

    Its positional evidence is the layered cells, which every layered NO
    of that finder names, and the forcing trace; a family, and a
    witness, which lives on the quotient, stay as they are.
    """
    refinement = verdict.refinement
    if refinement is not None:
        cells = [0] * len(order)
        for i, cell in enumerate(refinement):
            cells[order[i]] = cell
        refinement = tuple(cells)
    forcing = verdict.forcing
    if forcing is not None:
        forcing = tuple(
            (side, rule, order[a] if a >= 0 else a, order[b] if b >= 0 else b)
            for side, rule, a, b in forcing
        )
    return replace(verdict, u=u, v=v, refinement=refinement, forcing=forcing)
