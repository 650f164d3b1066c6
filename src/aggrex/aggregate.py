"""Selecting a budgeted set of local explainers by exact integer programming.

The model, over binary families w (candidate selected), y (point covered)
and z (candidate claims point, only inside the candidate's ball):

    max sum_j y_j
    s.t. z_ij <= w_i                     (one per z variable)
         y_j >= z_ij                     (one per z variable)
         y_j <= sum_i z_ij               (per point)
         sum_j (agree_ij - phi) z_ij >= 0  (per candidate: fidelity floor)
         sum_i w_i <= K                  (budget)

Out-of-ball z variables are presolved away (fixed to zero); they appear as
comments in the LP text for auditability. build_ip renders the model as
that text, straight from the pool's arrays, only for export: solve_exact
branches over w directly, and for a fixed selection the z problem is a
bipartite b-matching (disagreeing points to candidates, capacities from the
fidelity rows) solved exactly by augmenting paths, so every solve_exact
result is certified "optimal".

The search works on claimable sets: a candidate can only ever claim its
agreeing in-ball points, plus its disagreeing ones when its fidelity row
has slack. It branches dynamically, always on the remaining candidate
with the largest capped gain, and only over undominated candidates: i is
dropped when some other candidate's agreeing in-ball set holds all of i's
claimable set, since that one claims it all for free.

Two coverage numbers coexist: ip_coverage counts the points actually
claimed through z (a solver may drop in-ball points to satisfy a fidelity
row), while ball_coverage counts every point inside any selected ball.
ball_coverage >= ip_coverage always; both are reported.

A sweep solves one pool for many (K, phi) cells, so the pool does the
per-pool work once: CandidatePool is frozen over read-only arrays, builds
its row bitmasks on first use, and keeps one record per floor. The record
holds the claimable sets and claim caps, the undominated candidates (found
by the first exact solve at that floor), the greedy path, which every
greedy solve extends only as far as its budget needs, and one exact result
per budget. An exact solve for a budget not yet solved runs one search
for it and for the other budgets its caller names, warm-started by the
greedy path, so a sweep that names all its budgets searches once per
floor. Greedy evaluates a candidate only when its claimable set could
beat the best gain of the scan, and its nodes_explored counts the
evaluations made. Results, node counts included, are those of a solve on
a fresh pool.

Fidelity-floor arithmetic is exact: phi is quantized to an integer
numerator over PHI_DENOM = 10^6 and every feasibility check runs on
integers, so e.g. 9 agreeing + 1 disagreeing claims at phi = 0.9 is
feasible, not a float rounding accident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import Dataset
from .tree import route, stack_trees

PHI_DENOM = 10**6


def _phi_num(phi: float) -> int:
    """The fidelity floor phi as a numerator over PHI_DENOM."""
    if not 0.0 <= phi <= 1.0:
        raise ValueError("fidelity floor must lie in [0, 1]")
    return int(round(phi * PHI_DENOM))


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class _Floor:
    """What every solve at one fidelity floor shares, kept on the pool.

    claimable[i] is the set of points candidate i can ever claim (agreeing
    in-ball points, plus disagreeing ones when its fidelity row has any
    slack; claimable_matrix holds the same sets as rows, and sure the
    agreeing in-ball ones), caps[i] the most claims its row allows, and
    undominated the candidates the exact search branches on, computed by
    the first exact solve at this floor (greedy never reads it).

    steps and stall_evals are greedy's run, extended on demand:
    steps[k] = (selection, z masks, objective, evaluations after k scans),
    and greedy with budget K is steps[K], the first K steps of any longer
    run. stall_evals is set once a scan finds no positive gain: the run
    ends there, and every larger budget reports that scan's evaluations too.

    exact[K] = (selection, z masks, objective, nodes explored) is the exact
    solve with budget K (at most n; a larger budget is solved as n), kept
    once a search (_extend_exact) has solved it.
    """

    claimable: tuple[int, ...]
    caps: tuple[int, ...]
    claimable_matrix: np.ndarray
    sure: np.ndarray
    steps: list = field(default_factory=lambda: [((), {}, 0, 0)])
    stall_evals: int | None = None
    exact: dict = field(default_factory=dict)

    @cached_property
    def undominated(self) -> tuple[int, ...]:
        return _undominated(self.claimable_matrix, self.sure)


def _row_masks(matrix: np.ndarray) -> tuple[int, ...]:
    """Row i as a Python int whose bit j is matrix[i, j]."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """Pairwise ball membership and surrogate/black-box agreement for all candidates.

    Frozen, with read-only copies of its arrays, so whatever is derived from
    them is computed once and kept: the row bitmasks, and one _Floor record
    per fidelity floor (claimable sets, dominance and greedy's run).
    """

    radii: np.ndarray
    within: np.ndarray
    agree: np.ndarray

    def __post_init__(self):
        for name, dtype in (("radii", float), ("within", bool), ("agree", bool)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.radii.shape[0]
        if self.within.shape != (n, n) or self.agree.shape != (n, n):
            raise ValueError(
                f"within {self.within.shape} and agree {self.agree.shape} must be ({n}, {n}) for {n} radii"
            )

    @property
    def n(self) -> int:
        return self.within.shape[0]

    @cached_property
    def ball_masks(self) -> tuple[int, ...]:
        return _row_masks(self.within)

    @cached_property
    def agree_masks(self) -> tuple[int, ...]:
        return _row_masks(self.agree)

    @cached_property
    def _floors(self) -> dict[int, _Floor]:
        return {}

    def _floor(self, phi_num: int) -> _Floor:
        floor = self._floors.get(phi_num)
        if floor is None:
            floor = self._floors[phi_num] = _build_floor(self.within, self.agree, phi_num)
        return floor

    def disagree_pair_count(self) -> int:
        return int(np.sum(self.within & ~self.agree))


def _build_floor(within: np.ndarray, agree: np.ndarray, phi_num: int) -> _Floor:
    """Claimable sets and claim caps at one floor."""
    n = within.shape[0]
    sure = within & agree
    n_sure = sure.sum(axis=1)
    room = np.full(n, n) if phi_num == 0 else n_sure * (PHI_DENOM - phi_num) // phi_num
    claimable = sure | (within & (room > 0)[:, None])
    caps = np.minimum(claimable.sum(axis=1), n_sure + room)
    return _Floor(
        claimable=_row_masks(claimable), caps=tuple(caps.tolist()), claimable_matrix=claimable, sure=sure
    )


def _undominated(claimable: np.ndarray, sure: np.ndarray) -> tuple[int, ...]:
    """The candidates no other candidate dominates, ascending.

    Candidate k dominates i when claimable_i lies inside ball_k & agree_k:
    k claims all of that at no cost to its fidelity row, so swapping i for
    k, or dropping i beside k, never lowers coverage. Two candidates
    dominate each other only when both sets are the same all-agreeing set;
    of those the lowest index stays.
    """
    n = claimable.shape[0]
    # dominated[i, k]: no point of claimable_i lies outside sure_k
    dominated = claimable.astype(np.int64) @ (~sure).T.astype(np.int64) == 0
    np.fill_diagonal(dominated, False)
    beaten = dominated & ~(dominated.T & np.triu(np.ones((n, n), dtype=bool), 1))
    return tuple(np.flatnonzero(~beaten.any(axis=1)).tolist())


def build_pool(dataset: Dataset, explainers, blackbox) -> CandidatePool:
    """One candidate per dataset point, in dataset order.

    within[i][j] tests whether point j lies in the mixed-metric ball of
    radius radii[i] around point i, the ball `sampler.sample_ball` draws
    from, for all pairs at once; agree[i][j] compares explainer i and the
    black box at point j, every explainer's tree routing every point in
    one level loop over the stacked trees.
    """
    n = dataset.n
    if len(explainers) != n:
        raise ValueError(f"need one explainer per dataset point ({n}), got {len(explainers)}")
    for i, ex in enumerate(explainers):
        if ex.center_index != i:
            raise ValueError(f"explainer {i} has center_index {ex.center_index}")
        if ex.center.shape != (dataset.m,):
            raise ValueError("explainer center does not match the dataset schema")
    radii = np.array([ex.radius for ex in explainers], dtype=float)
    X = dataset.X
    # [i, j] compares point j with center i, one column at a time so the
    # temporaries stay n x n
    linf = np.zeros((n, n))
    for c in dataset.schema.continuous_idx:
        col = X[:, c]
        np.maximum(linf, np.abs(col[None, :] - col[:, None]), out=linf)
    flips = np.zeros((n, n), dtype=int)
    for b in dataset.schema.binary_idx:
        col = X[:, b]
        flips += col[None, :] != col[:, None]
    within = (linf <= radii[:, None]) & (flips <= np.floor(radii)[:, None])
    trees, roots = stack_trees([ex.tree for ex in explainers])
    agree = trees.label[route(trees, X, roots)] == blackbox.predict_batch(X)
    return CandidatePool(radii=radii, within=within, agree=agree)


def _coef(value: float) -> str:
    return f"{value:.12g}"


def build_ip(pool: CandidatePool, budget: int, fidelity_floor: float) -> str:
    """The integer program as LP text (Maximize / Subject To / Binary), out-of-ball z variables presolved away."""
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    phi = _phi_num(fidelity_floor) / PHI_DENOM
    n = pool.n
    ball = [np.flatnonzero(row).tolist() for row in pool.within]  # each candidate's in-ball points
    support = [(i, j) for i in range(n) for j in ball[i]]
    lines = [
        "\\ coverage-maximization integer program",
        f"\\ budget K = {int(budget)}, fidelity floor = {_coef(float(fidelity_floor))}",
        "\\ radius rows presolved: z variables exist only inside candidate balls;",
        "\\ all other z_i_j are fixed to 0:",
    ]
    fixed = [f"z_{i}_{j}" for i, j in zip(*np.nonzero(~pool.within))]
    for start in range(0, len(fixed), 12):
        lines.append("\\   " + " ".join(fixed[start : start + 12]) + " = 0")
    if not fixed:
        lines.append("\\   (none)")
    lines.append("Maximize")
    lines.append(" obj: " + " + ".join(f"y_{j}" for j in range(n)))
    lines.append("Subject To")
    lines += [f" zw_{i}_{j}: z_{i}_{j} - w_{i} <= 0" for i, j in support]
    lines += [f" yz_{i}_{j}: y_{j} - z_{i}_{j} >= 0" for i, j in support]
    for j in range(n):
        terms = "".join(f" - z_{i}_{j}" for i in np.flatnonzero(pool.within[:, j]).tolist())
        lines.append(f" cov_{j}: y_{j}{terms} <= 0")
    for i in range(n):
        parts: list[str] = []
        for j in ball[i]:
            c = (1.0 if pool.agree[i, j] else 0.0) - phi
            if not parts:
                parts.append(f"{_coef(c)} z_{i}_{j}")
            elif c < 0:
                parts.append(f"- {_coef(-c)} z_{i}_{j}")
            else:
                parts.append(f"+ {_coef(c)} z_{i}_{j}")
        lines.append(f" fid_{i}: " + " ".join(parts) + " >= 0")
    lines.append(" budget: " + " + ".join(f"w_{i}" for i in range(n)) + f" <= {int(budget)}")
    lines.append("Binary")
    names = [f"w_{i}" for i in range(n)] + [f"y_{j}" for j in range(n)] + [f"z_{i}_{j}" for i, j in support]
    for start in range(0, len(names), 10):
        lines.append(" " + " ".join(names[start : start + 10]))
    lines.append("End")
    return "\n".join(lines) + "\n"


@dataclass
class AggregateSolution:
    selected: tuple[int, ...]
    z_assignment: dict[int, tuple[int, ...]]
    ip_coverage: int
    ball_coverage: int
    ball_min_fidelity: float | None
    claimed_min_fidelity: float | None
    status: str
    nodes_explored: int = 0

    def to_dict(self) -> dict:
        return {
            "selected": list(self.selected),
            "z_assignment": {str(i): list(js) for i, js in sorted(self.z_assignment.items())},
            "ip_coverage": self.ip_coverage,
            "ball_coverage": self.ball_coverage,
            "ball_min_fidelity": self.ball_min_fidelity,
            "claimed_min_fidelity": self.claimed_min_fidelity,
            "status": self.status,
            "nodes_explored": self.nodes_explored,
        }


def coverage(sol: AggregateSolution, pool: CandidatePool) -> int:
    """Points inside at least one selected candidate's full ball (union count)."""
    ball = pool.ball_masks
    covered = 0
    for i in sol.selected:
        covered |= ball[i]
    return covered.bit_count()


def fidelity(sol: AggregateSolution, pool: CandidatePool) -> float:
    """Minimum over selected candidates of in-ball agreement fraction.

    A selected candidate with an empty ball contributes 1 vacuously (the
    ratio's denominator would be 0 otherwise).
    """
    if not sol.selected:
        raise ValueError("fidelity undefined for empty aggregate")
    ball = pool.ball_masks
    agree = pool.agree_masks
    worst = 1.0
    for i in sol.selected:
        size = ball[i].bit_count()
        if size:
            worst = min(worst, (ball[i] & agree[i]).bit_count() / size)
    return worst


# -- inner claim problem ------------------------------------------------------

def _claims_for_selection(selected: tuple[int, ...], ball: list[int], agree: list[int], phi_num: int):
    """Best z claims for a fixed selection: (z masks, objective).

    Agreeing in-ball points are always claimed (each adds 1 - phi >= 0 of
    slack and can only help). Disagreeing in-ball points each cost phi of
    slack, so candidate i can absorb at most
    floor(n_agree_i * (1 - phi) / phi) of them. Placing the uncovered
    disagreeing points is then a max-cardinality bipartite b-matching with
    those capacities, solved exactly by augmenting paths: each point, in
    index order, takes the first eligible candidate with room, and only
    when none has room searches for a path that moves earlier points along.
    """
    if phi_num == 0:
        z = {i: ball[i] for i in selected}
        covered = 0
        for i in selected:
            covered |= ball[i]
        return z, covered.bit_count()

    z = {i: ball[i] & agree[i] for i in selected}
    covered = 0
    for i in selected:
        covered |= z[i]
    room = {i: z[i].bit_count() * (PHI_DENOM - phi_num) // phi_num for i in selected}
    spendable = [(i, ball[i] & ~agree[i]) for i in selected if room[i] > 0]
    open_mask = 0
    for _, mask in spendable:
        open_mask |= mask
    held: dict[int, list[int]] = {i: [] for i, _ in spendable}
    placed = sum(_place(j, set(), spendable, held, room) for j in _iter_bits(open_mask & ~covered))
    for i, js in held.items():
        for j in js:
            z[i] |= 1 << j
    return z, covered.bit_count() + placed


def _place(j: int, seen: set[int], spendable, held: dict[int, list[int]], room: dict[int, int]) -> bool:
    """Claim disagreeing point j for a candidate in `spendable` that has room, or augment a path to one.

    The first eligible candidate with room takes it; failing that, an
    eligible candidate not yet `seen` on this path hands one of its held
    points on, recursively, and takes j in its place. A module-level
    function rather than a closure, so a solve leaves no reference cycle.
    """
    eligible = [i for i, mask in spendable if (mask >> j) & 1]
    for i in eligible:
        if len(held[i]) < room[i]:
            held[i].append(j)
            return True
    for i in eligible:
        if i not in seen:
            seen.add(i)
            for t, other in enumerate(held[i]):
                if _place(other, seen, spendable, held, room):
                    held[i][t] = j
                    return True
    return False


def _finish_solution(selected, z_masks, obj, status, pool, nodes) -> AggregateSolution:
    z_assignment = {int(i): tuple(_iter_bits(m)) for i, m in z_masks.items() if m}
    sol = AggregateSolution(
        selected=tuple(int(i) for i in selected),
        z_assignment=z_assignment,
        ip_coverage=int(obj),
        ball_coverage=0,
        ball_min_fidelity=None,
        claimed_min_fidelity=None,
        status=status,
        nodes_explored=nodes,
    )
    sol.ball_coverage = coverage(sol, pool)
    if sol.selected:
        sol.ball_min_fidelity = fidelity(sol, pool)
        agree = pool.agree_masks
        worst = 1.0
        for i in sol.selected:
            claims = z_masks.get(i, 0)
            if claims:
                worst = min(worst, (claims & agree[i]).bit_count() / claims.bit_count())
        sol.claimed_min_fidelity = worst
    return sol


def solve_exact(pool: CandidatePool, budget: int, fidelity_floor: float, *, also=()) -> AggregateSolution:
    """Provably optimal solution by branch-and-bound on the selection variables.

    The pool keeps one result per budget at each floor. A budget not solved
    yet is solved by _extend_exact, warm-started by the floor's greedy path,
    in one depth-first search together with every budget in `also` not
    solved yet at this floor; a sweep names all its budgets there, so it
    searches once per floor and its other calls return the kept results.
    Each budget's selection, claims and node count are those of a search
    for that budget alone on a fresh pool. A budget of n or more leaves
    every candidate free, so it is solved and kept as budget n. Every leaf
    solves its inner claim problem exactly (a b-matching), so the status is
    always "optimal".
    """
    if budget < 0 or any(k < 0 for k in also):
        raise ValueError("budget must be nonnegative")
    phi_num = _phi_num(fidelity_floor)
    if budget == 0:
        return _finish_solution((), {}, 0, "optimal", pool, 1)
    floor = pool._floor(phi_num)
    key = min(budget, pool.n)
    if key not in floor.exact:
        todo = {min(k, pool.n) for k in (budget, *also) if k > 0} - floor.exact.keys()
        _extend_exact(pool, floor, tuple(sorted(todo)), phi_num)
    selected, z, obj, nodes = floor.exact[key]
    return _finish_solution(selected, z, obj, "optimal", pool, nodes)


def _extend_exact(pool: CandidatePool, floor: _Floor, todo: tuple[int, ...], phi_num: int) -> None:
    """Solve the budgets in todo (ascending, none above n) in one depth-first search.

    Depth-first binary branching over the floor's undominated candidates
    (no optimum needs a dominated one, see _undominated). Each node branches
    on the remaining candidate with the largest capped gain, ties to the
    lowest index, and explores its 1-branch first; the 0-branch keeps its
    parent's gains less that entry, so only a 1-branch recomputes them.
    A candidate's capped gain is the smaller of its claim cap and the part
    of its claimable set not yet covered by the fixed-in candidates'. The
    node bound for budget K is that covered count plus the cheaper of (sum
    of the K - count largest gains, size of the claimable points the
    remaining candidates still reach). Everything over-counts the true
    claims, so pruning is safe. A node is a leaf for K when it holds K
    candidates or none remain; a leaf whose covered count does not beat
    K's incumbent is not solved.

    None of this shape depends on the budget, so the searches for all
    budgets walk one tree. Each frame carries the budgets still open at
    its node: a node counts toward the nodes explored of each of them, and
    a budget closes where the node is its leaf or its own bound, against
    its own incumbent, prunes it. An incumbent starts as greedy's step for
    its budget and changes only at its own leaves, met in the order a
    search for that budget alone meets them, so each budget sees exactly
    the nodes, bounds and leaves that search would.
    """
    budget = todo[-1]
    _extend_greedy(pool, floor, budget, phi_num)
    ball = pool.ball_masks
    agree = pool.agree_masks
    claim, cap, steps = floor.claimable, floor.caps, floor.steps
    # per budget k: incumbent (selection, z masks), its objective, nodes explored
    found, best_obj, nodes = {}, [0] * (budget + 1), [0] * (budget + 1)
    for k in todo:
        selected, z, best_obj[k], _ = steps[min(k, len(steps) - 1)]
        found[k] = selected, z
        nodes[k] = 1  # the root; a node's children are counted when it pushes them

    # a remaining candidate i with capped gain g is held as the key i - n*g,
    # so an ascending sort puts the largest gain first, ties to the lowest
    # index, and key // n == -g, key % n == i
    n = pool.n
    # frames: (union of fixed claimables, selected count, selection as a
    #          parent-linked chain, sorted keys of the remaining candidates,
    #          whether their gains are stale, open budgets ascending)
    stack = [(0, 0, None, sorted(i - n * cap[i] for i in floor.undominated), False, todo)]
    while stack:
        covered, count, chain, keys, stale, budgets = stack.pop()
        base = covered.bit_count()
        if not keys or budgets[0] == count:
            # a leaf for every open budget when no candidate remains, else for budget == count
            leaves, budgets = (budgets, ()) if not keys else (budgets[:1], budgets[1:])
            leaves = [k for k in leaves if base > best_obj[k]]
            if leaves:
                selected = []
                node = chain
                while node is not None:
                    selected.append(node[0])
                    node = node[1]
                selected = tuple(sorted(selected))
                z, obj = _claims_for_selection(selected, ball, agree, phi_num)
                for k in leaves:
                    if obj > best_obj[k]:
                        best_obj[k] = obj
                        found[k] = selected, z
            if not budgets:
                continue
        if stale:
            uncovered = ~covered
            fresh = []
            for key in keys:
                i = key % n
                g = (claim[i] & uncovered).bit_count()
                fresh.append(i - n * (g if g < cap[i] else cap[i]))
            fresh.sort()
            keys = fresh
        # budgets ascend, so each one's gain sum extends the last one's
        kept = []
        bound = base
        q = 0
        for k in budgets:
            for key in keys[q : k - count]:
                bound -= key // n
            q = k - count
            if bound > best_obj[k]:
                kept.append(k)
        if not kept:
            continue
        reach = 0
        for key in keys:
            reach |= claim[key % n]
        bound = base + (reach & ~covered).bit_count()
        budgets = tuple(k for k in kept if bound > best_obj[k])
        if not budgets:
            continue
        for k in budgets:
            nodes[k] += 2
        pick = keys[0] % n
        rest = keys[1:]
        # LIFO: push the 0-branch first so the 1-branch is explored first
        stack.append((covered, count, chain, rest, False, budgets))
        stack.append((covered | claim[pick], count + 1, (pick, chain), rest, True, budgets))

    for k in todo:
        floor.exact[k] = (*found[k], best_obj[k], nodes[k])


def _extend_greedy(pool: CandidatePool, floor: _Floor, budget: int, phi_num: int) -> None:
    """Scan until floor.steps reaches budget or greedy stalls.

    A candidate is evaluated only if its claimable set, joined with the
    selection's, could beat the best gain so far: every claim lies in a
    claimable set and a gain must be strictly larger to win, so skipping the
    others leaves the run unchanged.
    """
    n = pool.n
    ball = pool.ball_masks
    agree = pool.agree_masks
    claim = floor.claimable
    steps = floor.steps
    while len(steps) <= budget and floor.stall_evals is None:
        selected, _, current_obj, evals = steps[-1]
        reach = 0
        for i in selected:
            reach |= claim[i]
        best_gain = 0
        best = None
        for i in range(n):
            if i in selected or (reach | claim[i]).bit_count() - current_obj <= best_gain:
                continue
            trial = tuple(sorted(selected + (i,)))
            z, obj = _claims_for_selection(trial, ball, agree, phi_num)
            evals += 1
            if obj - current_obj > best_gain:  # strict: ties keep the lowest index
                best_gain = obj - current_obj
                best = (trial, z, obj)
        if best is None:
            floor.stall_evals = evals
        else:
            steps.append((*best, evals))


def solve_greedy(pool: CandidatePool, budget: int, fidelity_floor: float) -> AggregateSolution:
    """Iteratively add the candidate with the largest claimable-coverage gain.

    The run is the same for every budget at one floor, so the pool keeps it
    per floor and a call only scans past the steps an earlier call made.
    nodes_explored counts the claim evaluations a fresh run makes; a scan
    skips the candidates whose claimable sets cannot beat its best gain.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    phi_num = _phi_num(fidelity_floor)
    floor = pool._floor(phi_num)
    _extend_greedy(pool, floor, budget, phi_num)
    if budget < len(floor.steps):
        selected, z, obj, evals = floor.steps[budget]
    else:
        selected, z, obj, _ = floor.steps[-1]
        evals = floor.stall_evals
    return _finish_solution(selected, z, obj, "feasible", pool, evals)


def verify_solution(
    pool: CandidatePool,
    budget: int,
    fidelity_floor: float,
    sol: AggregateSolution,
) -> list[str]:
    """Re-check every IP constraint family from raw pool data; returns violations.

    Only a claiming candidate's fidelity row can be violated; each is read
    from pool.agree with one index array, of the candidate's in-range
    points: a point out of range is reported and never read.
    """
    phi_num = _phi_num(fidelity_floor)
    n = pool.n
    violations: list[str] = []
    selected = set(sol.selected)
    if len(selected) != len(sol.selected):
        violations.append("selected contains duplicates")
    if len(selected) > budget:
        violations.append(f"budget violated: {len(selected)} > {budget}")
    for i in sorted(selected):
        if not (0 <= i < n):
            violations.append(f"selected candidate {i} out of range")
    for i in sol.z_assignment:
        if i not in selected:
            violations.append(f"z for unselected candidate {i} (z <= w violated)")
    covered: set[int] = set()
    claims: dict[int, np.ndarray] = {}  # each in-range claiming candidate's in-range points
    for i, js in sol.z_assignment.items():
        in_range = 0 <= i < n
        if not in_range:
            violations.append(f"claiming candidate {i} out of range")
        if len(set(js)) != len(js):
            violations.append(f"candidate {i} claims a point twice")
        for j in js:
            if not (0 <= j < n):
                violations.append(f"claimed point {j} out of range")
            elif in_range and not pool.within[i, j]:
                violations.append(f"radius row violated: point {j} outside ball of candidate {i}")
        if in_range:
            claims[i] = np.array([j for j in js if 0 <= j < n], dtype=np.int64)
        covered.update(js)
    if len(covered) != sol.ip_coverage:
        violations.append(
            f"coverage linking violated: |union z| = {len(covered)} but ip_coverage = {sol.ip_coverage}"
        )
    for i in sorted(claims):
        row = PHI_DENOM * int(np.count_nonzero(pool.agree[i, claims[i]])) - phi_num * claims[i].size
        if row < 0:
            violations.append(f"fidelity row violated for candidate {i}: slack {row}/{PHI_DENOM}")
    return violations
