"""Arc-disjoint out-/in-branching pairs in semicomplete-like digraphs.

The package decides whether a digraph from the supported classes
(semicomplete digraphs, compositions of strong semicomplete digraphs,
transitive compositions, quasi-transitive digraphs) has a good (u,v)-pair:
an out-branching rooted at u and an in-branching rooted at v sharing no
arc.  YES answers come with a verified pair, NO answers with a
machine-checkable obstruction, and a brute-force oracle validates both at
small sizes.  `decide` is the one entry point for every class, and
`blocked` gives its NO, or None where it answers YES, without the
complete search.
"""

from .digraph import Digraph
from .branchings import Branching, BranchingPair, verify_good_pair
from .composition import Composition, qt_decompose
from .dispatch import blocked, decide, recognize
from .oracle import oracle_good_pair
from .verdicts import Verdict, validate_verdict, verdict_to_dict

__all__ = [
    "Digraph",
    "Branching",
    "BranchingPair",
    "Composition",
    "Verdict",
    "decide",
    "blocked",
    "recognize",
    "qt_decompose",
    "oracle_good_pair",
    "validate_verdict",
    "verdict_to_dict",
    "verify_good_pair",
]
