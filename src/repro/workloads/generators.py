"""Seeded synthetic graph generators.

The paper's datasets (DBLP, IMDB, Friendster, Memetracker, LDBC SNB) are
all, for the queries evaluated, *edge relations over two entity sets*
(author-paper, person-movie, user-group, user-meme, person-person) with
heavily skewed degree distributions.  These generators reproduce that
structure at laptop scale:

* :func:`zipf_bipartite` — a bipartite edge set whose endpoint choices
  follow (truncated) Zipf distributions; the skew parameter controls the
  duplication level of projected pairs, which is what drives every
  performance effect in the paper's evaluation (full-join blow-up vs.
  distinct-output size);
* :func:`uniform_bipartite` — the skewless control;
* :func:`power_law_graph` — a directed "knows" graph for the LDBC-like
  social-network workload.

All generators take an explicit ``seed`` and are deterministic across
runs (numpy ``default_rng``).
"""

from __future__ import annotations

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via import stubbing
    np = None  # type: ignore[assignment]

from ..errors import WorkloadError


def _require_numpy() -> None:
    """The generators draw from numpy's RNG; fail with install advice."""
    if np is None:
        raise WorkloadError(
            "the synthetic workload generators need numpy — install the "
            "fast extra: pip install 'repro[fast]'"
        )

__all__ = ["zipf_bipartite", "uniform_bipartite", "power_law_graph", "zipf_probabilities"]

Edge = tuple[int, int]


def zipf_probabilities(n: int, skew: float) -> "np.ndarray":
    """Normalised truncated-Zipf probabilities ``p(i) ∝ (i+1)^-skew``."""
    _require_numpy()
    if n <= 0:
        raise WorkloadError(f"domain size must be positive, got {n}")
    if skew < 0:
        raise WorkloadError(f"skew must be non-negative, got {skew}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    return weights / weights.sum()


def zipf_bipartite(
    n_left: int,
    n_right: int,
    n_edges: int,
    *,
    skew_left: float = 1.0,
    skew_right: float = 1.0,
    seed: int = 0,
) -> list[Edge]:
    """Distinct bipartite edges with Zipf-skewed endpoint popularity.

    Left endpoints are drawn from ``zipf_probabilities(n_left, skew_left)``
    and right endpoints independently; duplicate edges are rejected and
    re-drawn (with an attempt cap, after which the remaining edges are
    filled densely), so exactly ``min(n_edges, n_left * n_right)`` edges
    are returned.

    Returns ``[(left_id, right_id), ...]`` with ids in ``[0, n)``.
    """
    _require_numpy()
    if n_edges < 0:
        raise WorkloadError(f"n_edges must be non-negative, got {n_edges}")
    capacity = n_left * n_right
    n_edges = min(n_edges, capacity)
    if n_edges == 0:
        return []
    rng = np.random.default_rng(seed)
    p_left = zipf_probabilities(n_left, skew_left)
    p_right = zipf_probabilities(n_right, skew_right)

    seen: set[Edge] = set()
    edges: list[Edge] = []
    attempts = 0
    max_attempts = 30
    while len(edges) < n_edges and attempts < max_attempts:
        need = n_edges - len(edges)
        batch = max(need * 2, 256)
        ls = rng.choice(n_left, size=batch, p=p_left)
        rs = rng.choice(n_right, size=batch, p=p_right)
        for l, r in zip(ls.tolist(), rs.tolist()):
            e = (int(l), int(r))
            if e not in seen:
                seen.add(e)
                edges.append(e)
                if len(edges) == n_edges:
                    break
        attempts += 1
    if len(edges) < n_edges:
        # Dense fill for pathological parameters (tiny domains, huge skew).
        for l in range(n_left):
            for r in range(n_right):
                e = (l, r)
                if e not in seen:
                    seen.add(e)
                    edges.append(e)
                    if len(edges) == n_edges:
                        return edges
    return edges


def uniform_bipartite(
    n_left: int, n_right: int, n_edges: int, *, seed: int = 0
) -> list[Edge]:
    """Distinct bipartite edges with uniform endpoint choice (skew 0)."""
    return zipf_bipartite(
        n_left, n_right, n_edges, skew_left=0.0, skew_right=0.0, seed=seed
    )


def power_law_graph(
    n_nodes: int,
    n_edges: int,
    *,
    skew: float = 1.2,
    seed: int = 0,
    allow_self_loops: bool = False,
) -> list[Edge]:
    """Directed graph edges with Zipf-skewed endpoints (LDBC-like knows).

    Self-loops are rejected by default; duplicate edges always.
    """
    _require_numpy()
    if n_nodes <= 0:
        raise WorkloadError(f"n_nodes must be positive, got {n_nodes}")
    capacity = n_nodes * n_nodes - (0 if allow_self_loops else n_nodes)
    n_edges = min(n_edges, max(capacity, 0))
    if n_edges == 0:
        return []
    rng = np.random.default_rng(seed)
    p = zipf_probabilities(n_nodes, skew)
    seen: set[Edge] = set()
    edges: list[Edge] = []
    attempts = 0
    while len(edges) < n_edges and attempts < 60:
        batch = max((n_edges - len(edges)) * 2, 256)
        src = rng.choice(n_nodes, size=batch, p=p)
        dst = rng.choice(n_nodes, size=batch)
        for s, d in zip(src.tolist(), dst.tolist()):
            if not allow_self_loops and s == d:
                continue
            e = (int(s), int(d))
            if e not in seen:
                seen.add(e)
                edges.append(e)
                if len(edges) == n_edges:
                    break
        attempts += 1
    return edges
