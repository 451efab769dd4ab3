"""Weight assignment schemes (paper §6.1.1).

The paper attaches a weight to every entity in two ways:

* **random** — uniformly drawn values;
* **logarithmic** — ``w(v) = log2(1 + deg(v))`` where ``deg`` is the
  entity's degree in the edge relation (following [40]).

Both schemes are reproduced here as seeded dict builders, plus the glue
that turns entity-weight tables into a
:class:`~repro.core.ranking.TableWeight` for a concrete query's head
variables.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Mapping

from ..core.ranking import TableWeight
from ..data.relation import Relation
from ..storage import kernels

__all__ = [
    "random_weights",
    "log_degree_weights",
    "table_weight_for_vars",
]


def random_weights(
    values: Iterable, *, seed: int = 0, low: int = 0, high: int = 1_000_000
) -> dict:
    """Uniform random weight per value (the paper's "random" scheme).

    Weights are *integers* so that SUM keys are exact and associative:
    different algorithms accumulate partial sums in different orders
    (join-tree order vs head order), and float rounding would otherwise
    perturb tie-breaking between them by an ulp.
    """
    rng = random.Random(seed)
    return {v: rng.randint(low, high) for v in values}


def log_degree_weights(relation: Relation, attr: str) -> dict:
    """``w(v) = log2(1 + deg(v))`` over one column of an edge relation
    (the paper's "logarithmic" scheme).

    Integer columns count degrees through the grouping kernel
    (:func:`repro.storage.kernels.group_indices` — one stable argsort
    over the cached code column instead of a Python dict probe per row,
    and group *sizes* read off directly without materialising buckets); keys are the original
    column values in first-occurrence order, exactly matching the dict
    build, and the per-distinct ``log2`` stays on :func:`math.log2`
    either way, so the returned table is identical.  Non-integer
    columns take the row-at-a-time loop.
    """
    position = relation.position(attr)
    if kernels.enabled():
        matrix = relation.instance_codes((position,), distinct=False)
        if matrix is not None and len(matrix) == len(relation):
            column = relation.scan().column(position)
            return {
                column[first]: math.log2(1 + len(group))
                for first, group in kernels.group_indices(matrix[:, 0])
            }
    degrees: dict = {}
    for v in relation.scan().column(position):
        degrees[v] = degrees.get(v, 0) + 1
    return {v: math.log2(1 + d) for v, d in degrees.items()}


def table_weight_for_vars(
    var_tables: Mapping[str, Mapping], *, default: float | None = None
) -> TableWeight:
    """Build a :class:`TableWeight` mapping each head variable to its
    entity weight table (e.g. both endpoints of a 2-hop query to the
    author table)."""
    return TableWeight({v: dict(t) for v, t in var_tables.items()}, default=default)
