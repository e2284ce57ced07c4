import random

import pytest

from vgsst import (
    Instance,
    brute_force_optimum,
    fig2_instance,
    fig3_instance,
    m_optimize,
    random_instance,
)


@pytest.fixture()
def fig3() -> Instance:
    return fig3_instance()


@pytest.fixture()
def fig2():
    return fig2_instance


#: The benchmark's oracle rungs (n, grades); the tests draw each at
#: generation seeds 1-2 with edge_prob=0.4, terminal_fraction=0.4.
MODEL_RUNGS = ((7, 3), (8, 3), (9, 2), (10, 2), (11, 2), (12, 1), (12, 2))


def mixed_corpus(count: int, seed0: int, max_n: int = 9, max_levels: int = 3):
    """Deterministic corpus of small connected instances, two or more
    terminals each, with sizes/densities cycled for variety."""
    instances = []
    probs = [0.3, 0.4, 0.5]
    for i in range(count):
        n = 4 + i % (max_n - 3)
        levels = 1 + i % max_levels
        terminals = min(2 + i % 3, n - 1)
        instances.append(
            random_instance(
                n=n,
                levels=levels,
                seed=seed0 + i,
                edge_prob=probs[i % 3],
                num_terminals=terminals,
            )
        )
    return instances


def set_cover_family(k: int, levels: int, seed: int):
    """Greedy set cover's tight example as a Steiner instance, ids shuffled
    from ``seed``; returns (instance, the ids of sets A and B).

    A root terminal is adjacent to the set vertices A, B and G_1..G_k.
    Two rows of 2^k - 1 element terminals follow: A is adjacent to the
    top row, B to the bottom row, and G_i to 2^(i-1) elements of each
    row, disjoint across i. Every terminal demands ``levels`` and costs
    0; every set vertex has the ladder (1, 2, ..., levels). Buying A and B
    at the top grade costs 2L, and that is optimal: without A every G_i
    must be bought, since each holds a top-row element no other set holds,
    which costs kL >= 2L, and likewise without B. The greedy buys
    G_k, ..., G_1, each merging one tree more than A or B at the same
    price, and pays kL.
    """
    rows = 2**k - 1
    n = 3 + k + 2 * rows
    top, bottom = range(3 + k, 3 + k + rows), range(3 + k + rows, n)
    edges = [(0, s) for s in range(1, 3 + k)]
    edges += [(1, e) for e in top] + [(2, e) for e in bottom]
    for i in range(1, k + 1):
        for row in (top, bottom):
            edges += [(2 + i, e) for e in row[2 ** (i - 1) - 1 : 2**i - 1]]
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    terminals = {0, *top, *bottom}
    costs = [None] * n
    for v in range(n):
        costs[perm[v]] = [0] * levels if v in terminals else list(range(1, levels + 1))
    instance = Instance.build(
        n, [(perm[u], perm[v]) for u, v in edges], levels,
        {perm[t]: levels for t in terminals}, costs,
    )
    return instance, (perm[1], perm[2])


def random_grt(seed: int):
    """A random rooted tree with non-increasing grades plus a marked set.

    Returns (host instance, tree edges, grades, root, marked). The host
    instance only supplies graph context for the checker APIs.
    """
    rng = random.Random(seed)
    n = rng.randint(5, 12)
    levels = rng.randint(1, 4)
    edges = []
    parent = [0] * n
    for v in range(1, n):
        parent[v] = rng.randrange(v)
        edges.append((parent[v], v))
    y = [0] * n
    y[0] = rng.randint(1, levels)
    for v in range(1, n):
        y[v] = rng.randint(1, y[parent[v]])
    marked = {0}
    marked.update(rng.sample(range(1, n), rng.randint(1, n - 1)))
    host = Instance.build(n, edges, levels, {0: levels}, [[0] * levels] * n)
    return host, edges, tuple(y), 0, marked


def optimized_grt(seed: int):
    """random_grt pushed through demotion so the decomposition pre holds."""
    host, edges, y, root, marked = random_grt(seed)
    pruned_edges, demoted = m_optimize(host, edges, y, root, marked)
    return host, pruned_edges, demoted, root, marked


@pytest.fixture(scope="session")
def ratio_corpus():
    return mixed_corpus(200, seed0=5000)


@pytest.fixture(scope="session")
def ratio_corpus_optima(ratio_corpus):
    return [brute_force_optimum(inst) for inst in ratio_corpus]
