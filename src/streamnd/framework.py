"""End-to-end network design on a stream: build a fault-tolerant spanner with
requirement-derived parameters, then solve the instance exactly on the kept
edges."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InfeasibleError, ResourceLimitError
from .graph import ConnectivityMode, Graph, check_feasible
from .spanner import FaultMode, FtConfig, build_spanner


class Analysis(Enum):
    INTEGRAL = "integral"
    FRACTIONAL = "fractional"


@dataclass(frozen=True)
class FrameworkConfig:
    """Stretch parameter, connectivity mode, and the analysis flavour that
    fixes the fault budget.  eps is always 1/(2t-1)."""

    t: int
    mode: ConnectivityMode
    analysis: Analysis = Analysis.FRACTIONAL

    def __post_init__(self):
        if not isinstance(self.t, int) or self.t < 1:
            raise ValueError(f"stretch parameter t={self.t!r} must be a positive integer")

    @property
    def eps(self):
        return Fraction(1, 2 * self.t - 1)

    def fault_budget(self, k):
        """Fault-tolerance parameter for maximum requirement k."""
        t = self.t
        if self.mode is ConnectivityMode.EDGE:
            return max(0, (2 * t - 1) * (2 * k - 1))
        if self.mode is ConnectivityMode.VERTEX and self.analysis is Analysis.INTEGRAL:
            return max(0, (2 * t - 2) * (k - 1))
        return max(0, (2 * t - 2) * (2 * k - 1))

    def fault_mode(self):
        if self.mode is ConnectivityMode.EDGE:
            return FaultMode.EDGE
        return FaultMode.VERTEX

    def factor_bound(self, k):
        """Certified approximation ceiling for this configuration, if any."""
        if self.mode is ConnectivityMode.EDGE or self.mode is ConnectivityMode.ELEMENT:
            return 8 * self.t
        if self.analysis is Analysis.INTEGRAL:
            return 2 * self.t * max(k, 1)
        return 8 * self.t if k <= 2 else None


MAX_BRANCH_EDGES = 40  # the solver guard, shared by every exact solve


def check_branch_guard(count):
    """Raise ResourceLimitError when `count` branching edges exceed the
    solver guard, `MAX_BRANCH_EDGES` as read at call time."""
    if count > MAX_BRANCH_EDGES:
        raise ResourceLimitError(
            f"{count} branching edges exceeds the solver guard {MAX_BRANCH_EDGES}"
        )


def exact_solve(g, req, mode, fixed=()):
    """Minimum-weight feasible edge subset by branch and bound.

    Branching edges are ordered by decreasing weight; a branch is cut when it
    is already feasible (supersets cost at least as much), when even keeping
    every remaining edge is infeasible, or when it cannot beat the incumbent.
    Edges in `fixed` are forced into every solution; an id that is not an int
    in 0..len(g.edges)-1 raises ValueError.

    The incumbent test uses a degree lower bound.  Every disjoint path leaves
    x on its own edge (in all three modes), so a solution gives x at least
    need(x) = max_y r(x, y) incident edges.  If the fixed and chosen edges
    give x only deg(x), x still needs d(x) = need(x) - deg(x) undecided edges,
    costing at least c(x), the sum of its d(x) cheapest ones; an edge serves
    two endpoints, so any completion adds at least ceil(sum_x c(x) / 2).  A
    branch is cut when its weight plus that bound reaches the incumbent, or
    when some x has fewer than d(x) undecided edges left.  A cut subtree holds
    no solution strictly lighter than the incumbent, and only a strictly
    lighter one replaces it, so the bound changes no result, only the work.

    The same table is the only degree screen (`check_feasible` has none): a
    node whose fixed and chosen edges leave some d(x) > 0 branches without a
    `check_feasible` call, and a remainder (chosen plus every undecided edge)
    is asked about only once the bound finds d(x) undecided edges at every x.
    The first query, on every edge, is always made, so a bad map still raises
    ValueError.  An include child's remainder is its parent's, so the cache
    answers it.
    """
    fixed = frozenset(fixed)
    if not all(isinstance(i, int) and 0 <= i < len(g.edges) for i in fixed):
        raise ValueError(f"fixed edge ids must be ints in 0..{len(g.edges) - 1}")
    free = [i for i in range(len(g.edges)) if i not in fixed]
    check_branch_guard(len(free))
    free.sort(key=lambda i: (-g.edges[i][2], i))
    weights = [g.edges[i][2] for i in free]
    fixed_weight = sum(g.edges[i][2] for i in fixed)

    # feasibility is monotone in the edge set; cache minimal feasible and
    # maximal infeasible subsets to spare repeated flow computations
    known_good = []
    known_bad = []

    def feasible(ids):
        fs = frozenset(ids)
        if any(good <= fs for good in known_good):
            return True
        if any(fs <= bad for bad in known_bad):
            return False
        ok = check_feasible(g.subgraph(fs), req, mode)
        if ok:
            known_good[:] = [g_ for g_ in known_good if not fs <= g_]
            known_good.append(fs)
        else:
            known_bad[:] = [b_ for b_ in known_bad if not b_ <= fs]
            known_bad.append(fs)
        return ok

    base_ids = sorted(fixed)
    if not feasible(base_ids + free):
        raise InfeasibleError("no feasible edge subset exists in this graph")

    # degree bound tables, built after the call above has validated every
    # entry of `req` (zero ones add no need, so skip them):
    # short[x] is need(x) minus x's fixed degree, pos_at[x] the positions in
    # `free` of x's branching edges, cheapest_at[x][d] the sum of its d
    # cheapest ones (they are the last d, as `free` is sorted heaviest first)
    short = [0] * g.n
    for u, v, r in req.pairs():
        if r:
            short[u] = max(short[u], r)
            short[v] = max(short[v], r)
    for i in fixed:
        u, v, _ = g.edges[i]
        short[u] -= 1
        short[v] -= 1
    needy = [x for x in range(g.n) if short[x] > 0]
    pos_at = {x: [] for x in needy}
    for p, i in enumerate(free):
        u, v, _ = g.edges[i]
        if u in pos_at:
            pos_at[u].append(p)
        if v in pos_at:
            pos_at[v].append(p)
    cheapest_at = {}
    for x, pos in pos_at.items():
        sums = [0]
        for p in reversed(pos):
            sums.append(sums[-1] + weights[p])
        cheapest_at[x] = sums

    def completion_bound(i, chosen):
        """Least weight that any feasible completion of `chosen` by edges of
        free[i:] adds, and whether `chosen` leaves some vertex short of its
        need; None if no completion is feasible."""
        left = short[:]
        for e in chosen:
            u, v, _ = g.edges[e]
            left[u] -= 1
            left[v] -= 1
        total = 0
        degree_short = False
        for x in needy:
            d = left[x]
            if d > 0:
                pos = pos_at[x]
                if len(pos) - bisect_left(pos, i) < d:
                    return None
                total += cheapest_at[x][d]
                degree_short = True
        return (total + 1) // 2, degree_short

    # depth-first over (next index, chosen ids, weight), exclude branch first
    best_weight, best_ids = None, None
    stack = [(0, [], fixed_weight)]
    while stack:
        i, chosen, weight = stack.pop()
        if best_weight is not None and weight >= best_weight:
            continue
        bound = completion_bound(i, chosen)
        if bound is None:
            continue
        extra, degree_short = bound
        if best_weight is not None and weight + extra >= best_weight:
            continue
        if not degree_short and feasible(base_ids + chosen):
            best_weight, best_ids = weight, sorted(base_ids + chosen)
            continue
        if i == len(free):
            continue
        if not feasible(base_ids + chosen + free[i:]):
            continue
        stack.append((i + 1, chosen + [free[i]], weight + weights[i]))
        stack.append((i + 1, chosen, weight))

    if best_weight is None:
        raise InfeasibleError("no feasible edge subset exists in this graph")
    return tuple(best_ids), best_weight


@dataclass(frozen=True)
class FrameworkResult:
    spanner: Graph
    stored_edges: int
    solution: tuple  # (u, v, w) triples from the spanner
    weight: int
    test_kind: object  # the spanner's addition test, a spanner.TestKind


def run_framework(stream, req, cfg, reliable=None):
    """Single pass: keep a fault-tolerant spanner sized for the requirements,
    then solve exactly on it.  The spanner picks its addition test as
    `FtSpannerState` does for an unset `test_kind`.  Raises InfeasibleError
    when even the full spanner cannot meet the requirements (only possible if
    the input cannot)."""
    ft = FtConfig(f=cfg.fault_budget(req.k), t=cfg.t, mode=cfg.fault_mode(), eps=cfg.eps)
    state = build_spanner(stream, ft)
    spanner = state.spanner_graph(reliable=reliable)
    ids, weight = exact_solve(spanner, req, cfg.mode)
    solution = tuple(spanner.edges[i] for i in ids)
    return FrameworkResult(
        spanner, state.stored_edge_count, solution, weight, state.config.test_kind
    )
