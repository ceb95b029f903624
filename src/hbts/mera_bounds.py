"""Kernel-rank bounds for scale-invariant entanglement-renormalization topologies.

Pure arithmetic: the smallest window whose averaged reduced state is
guaranteed rank-deficient, and the bound itself.  No renormalization
channels are constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tensor_core import _integer


@dataclass(frozen=True)
class MeraBound:
    topology: str
    d: int
    nu: int
    bound: int
    nonmaximal: bool

    @property
    def full_dim(self) -> int:
        return self.d ** self.nu


def mera_rank_bound(topology: str, d: int) -> MeraBound:
    """Minimal parent-interaction window and rank bound for a renormalization topology."""
    d = _integer(d, "local dimension d", 2)
    if topology == "binary":
        if 2 * d ** 4 < d ** 5:
            return MeraBound(topology, d, 5, 2 * d ** 4, True)
        bound = d ** 4 + d ** 5
        return MeraBound(topology, d, 6, bound, bound < d ** 6)
    if topology == "ternary":
        bound = 3 * d ** 5
        return MeraBound(topology, d, 7, bound, bound < d ** 7)
    raise ValueError("unknown topology %r (expected 'binary' or 'ternary')" % (topology,))
