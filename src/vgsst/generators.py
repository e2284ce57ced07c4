"""Built-in and seeded random instances.

``fig3_instance`` is the hand-sized two-grade example used throughout the
tests and docs: its greedy run takes exactly two merges at ratios 4/3 and
13 for a total cost of 30. ``fig2_instance`` is the hub-and-chain family
on which the layered top-down heuristic pays one unit per grade while a
single hub vertex of cost 1+eps serves every grade at once.
"""

from __future__ import annotations

import random
from decimal import Decimal

from .costs import COST_SCALE, Cost
from .instance import InputError, Instance, _edge_masks, _reach


def fig3_instance() -> Instance:
    """Eight vertices, two grades, four terminals; costs proportional to grade.

    Vertices: 0..7. Terminals: 0 and 5 demand grade 2, vertices 2 and 6
    demand grade 1. Non-terminal ladders double from grade 1 to 2;
    terminal ladders charge only the increment above the demand.
    """
    return Instance.build(
        num_vertices=8,
        edges=[(0, 1), (1, 2), (2, 4), (4, 7), (5, 7), (3, 5), (2, 3), (4, 6)],
        grades=2,
        required={0: 2, 2: 1, 5: 2, 6: 1},
        costs=[
            [0, 0],  # 0: terminal, demand 2
            [7, 14],  # 1
            [0, 8],  # 2: terminal, demand 1, base cost 8
            [4, 8],  # 3
            [3, 6],  # 4
            [0, 0],  # 5: terminal, demand 2
            [0, 6],  # 6: terminal, demand 1, base cost 6
            [1, 2],  # 7
        ],
    )


def fig2_instance(levels: int, eps: str | Decimal = "0.1") -> Instance:
    """Hub-and-chain family showing the layered heuristic's grade factor.

    One chain terminal per grade plus a top-grade anchor; consecutive
    terminals are joined by unit-cost connectors, and a hub adjacent to
    every terminal costs 1+eps at any grade. The layered heuristic buys a
    connector per grade (cost = number of grades); buying the hub at the
    top grade costs 1+eps.

    Vertex ids: 0 = anchor (demand = levels), 1..levels = chain terminals
    (vertex i demands grade i), levels+1..2*levels = connectors, 2*levels+1
    = hub.
    """
    if levels < 1:
        raise InputError("the family needs at least one grade")
    try:
        eps_cost = Cost.parse(eps)
    except ValueError as exc:  # negative or off the 10^-6 grid
        raise InputError(f"bad eps {eps!r}: {exc}") from None
    hub_cost = Cost.from_micros(COST_SCALE + eps_cost.micros)
    unit = Cost.parse(1)

    anchor = 0
    hub = 2 * levels + 1

    def connector(i: int) -> int:
        return levels + i

    edges = [(anchor, connector(levels)), (connector(levels), levels)]
    for i in range(levels, 1, -1):
        edges.append((i, connector(i - 1)))
        edges.append((connector(i - 1), i - 1))
    edges.append((anchor, hub))
    for i in range(1, levels + 1):
        edges.append((i, hub))

    required = {anchor: levels}
    for i in range(1, levels + 1):
        required[i] = i

    zero_ladder = [Cost.zero()] * levels
    costs: list[list[Cost]] = [list(zero_ladder)]
    costs.extend(list(zero_ladder) for _ in range(levels))
    costs.extend([unit] * levels for _ in range(levels))
    costs.append([hub_cost] * levels)
    return Instance.build(2 * levels + 2, edges, levels, required, costs)


def random_instance(
    n: int,
    levels: int,
    seed: int,
    edge_prob: float = 0.5,
    num_terminals: int | None = None,
    terminal_fraction: float = 0.4,
    max_attempts: int = 300,
) -> Instance:
    """Seeded random connected instance in normalized form.

    Edges are sampled independently and the draw is rejected until the
    graph comes out connected. Cost ladders are prefix sums of increments
    drawn from {0, 0.1, ..., 1.0}, so they are non-decreasing on the exact
    grid by construction. Terminal demands are uniform, with one terminal
    bumped to the top grade; terminal ladders are zeroed up to the demand.
    """
    if n < 1:
        raise InputError("need at least one vertex")
    if levels < 1:
        raise InputError("need at least one grade")
    if not 0.0 <= edge_prob <= 1.0:
        raise InputError("edge probability must be within [0, 1]")
    rng = random.Random(seed)

    edges: list[tuple[int, int]] = []
    for _ in range(max_attempts):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_prob
        ]
        full = (1 << n) - 1
        if _reach(_edge_masks(n, edges), full, 0) == full:
            break
    else:
        raise InputError(
            f"could not draw a connected graph in {max_attempts} attempts "
            f"(n={n}, edge_prob={edge_prob})"
        )

    if num_terminals is None:
        num_terminals = max(1, round(terminal_fraction * n))
    if not 1 <= num_terminals <= n:
        raise InputError(f"terminal count {num_terminals} out of range")
    terminals = sorted(rng.sample(range(n), num_terminals))
    required = {t: rng.randint(1, levels) for t in terminals}
    if max(required.values()) < levels:
        required[rng.choice(terminals)] = levels

    costs: list[list[Cost]] = []
    for v in range(n):
        ladder: list[Cost] = []
        run = 0
        for _ in range(levels):
            run += rng.randint(0, 10) * (COST_SCALE // 10)
            ladder.append(Cost.from_micros(run))
        if v in required:
            paid = ladder[required[v] - 1]
            ladder = [
                c - paid if c > paid else Cost.zero() for c in ladder
            ]
        costs.append(ladder)

    return Instance.build(n, edges, levels, required, costs)
