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
