"""Large-deviations calculus: population scores, the false-reject exponent
function and its ceiling, the match-count-estimation exponents, and the
two-phase exponent composition.

The constrained minimizations are convex (KL objectives, GJS sublevel-set
constraints, both jointly convex), so SLSQP from feasible starts finds the
global minimum; every returned solution is re-certified by evaluating the
objective and constraints from scratch, independent of the optimizer state,
and the feasible starts are candidates too. At threshold zero the
constraints degenerate to equalities and the problem collapses to tied
components, each solved exactly by the geometric-mean weighted-KL closed
form.

The false-reject exponent is a minimum over rival hypothesis pairs. Each
pair is bounded below by the larger of two relaxations that keep one
hypothesis's constraint each (T - 1 small solves); pairs are solved in
ascending order of that bound, and the rest are skipped once it reaches the
best value found, by a margin for the solver's tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import minimize

from .core import Distribution, InputError, MatchHypothesis, dists_equal
from .divergences import (
    WeightedKlProblem,
    gjs_arr,
    kl_arr,
    min_weighted_kl,
)
from .glrt import effective_threshold
from .hypotheses import DEFAULT_CAP, HypothesisSpace, enumerate_space

FEAS_TOL = 1e-7
_PFLOOR = 1e-12
# a rival pair is skipped once its relaxation bound reaches
# best * (1 + SKIP_REL) + SKIP_ABS; the margin absorbs the solver tolerance
# on both the bound and the incumbent
SKIP_REL = 1e-6
SKIP_ABS = 1e-12


@dataclass(frozen=True)
class ExponentSolution:
    """Value plus argmin distributions and convergence metadata for one
    constrained KL minimization; value may be +inf (flagged in note)."""

    value: float
    argmin_omegas: tuple | None
    argmin_psis: tuple | None
    active_pair: tuple | None
    converged: bool
    iterations: int
    note: str | None = None
    pairs_solved: int = 0
    pairs_skipped: int = 0


def population_score(p_dists, q_dists, h: MatchHypothesis, alpha: float) -> float:
    """Sum of GJS(P_i, Q_j, alpha) over the matched pairs of h."""
    return float(
        sum(gjs_arr(p_dists[i].probs, q_dists[j].probs, alpha) for i, j in h.pairs)
    )


def min_rival_score(p_dists, q_dists, space: HypothesisSpace, l: int, alpha: float) -> float:
    """Smallest population score among hypotheses other than l (+inf when the
    space has a single hypothesis)."""
    if space.count < 2:
        return math.inf
    return min(
        population_score(p_dists, q_dists, space[t], alpha)
        for t in range(space.count)
        if t != l
    )


def check_consistent(p_dists, q_dists, h: MatchHypothesis, atol: float = 1e-12) -> None:
    """Matched pairs must carry equal generating distributions."""
    for i, j in h.pairs:
        if not dists_equal(p_dists[i], q_dists[j], atol):
            raise InputError(
                f"(P, Q) inconsistent with the hypothesis: P_{i} != Q_{j} on matched pair"
            )


def reference_psis(p_dists, q_dists, h_l: MatchHypothesis) -> list[Distribution]:
    """Per-y reference: the matched P for matched columns, Q_j otherwise."""
    inv = h_l.sigma_inv
    return [
        p_dists[inv[j]] if j in inv else q_dists[j] for j in range(len(q_dists))
    ]


def type_exponent(p_dists, q_dists, h_l, omegas, psis, alpha: float) -> float:
    """Linear KL combination whose exponential bounds the joint type
    probability under the hypothesis: sum_i a*D(Om_i||P_i) plus per-y KL to
    the reference distributions."""
    check_consistent(p_dists, q_dists, h_l)
    refs = reference_psis(p_dists, q_dists, h_l)
    tot = sum(alpha * kl_arr(om.probs, p.probs) for om, p in zip(omegas, p_dists))
    tot += sum(kl_arr(ps.probs, r.probs) for ps, r in zip(psis, refs))
    return float(tot)


# ---------------------------------------------------------------------------
# generic convex solver: min sum_k w_k D(Z_k || R_k)
#                        s.t. sum over (a,b) in c of GJS(Z_a, Z_b) <= lam_c
# ---------------------------------------------------------------------------

class _ConstrainedKl:
    """The distributions Z_k are the rows of an (nvar, |X|) array. The
    objective with its gradient, and every constraint with its Jacobian row,
    are each computed in one vectorized pass, cached per iterate because
    SLSQP asks for values and derivatives in separate calls."""

    def __init__(self, targets, weights, constraints, alpha):
        self.targets = np.array(targets, dtype=np.float64)
        self.nvar, self.size = self.targets.shape
        self.binary = self.size == 2
        self.weights = np.asarray(weights, dtype=np.float64)
        self.alpha = float(alpha)
        self.lams = np.array([lam for _, lam in constraints], dtype=np.float64)
        # one entry per constrained (a, b) pair: its constraint, a and b; a
        # constraint is one hypothesis, so no index repeats within it
        flat = [(c, a, b) for c, (pairs, _) in enumerate(constraints) for a, b in pairs]
        self._pc, self._pa, self._pb = (np.array(v, dtype=np.intp) for v in zip(*flat))
        self._r_floor = np.maximum(self.targets, _PFLOOR)
        self._key = None

    # variable packing: binary -> one scalar per distribution (prob of 1);
    # general -> all coordinates with per-distribution simplex equalities.

    def pack(self, dists):
        z = np.asarray(dists, dtype=np.float64)
        return z[:, 1] if self.binary else z.ravel()

    def unpack(self, x) -> np.ndarray:
        if self.binary:
            v = np.minimum(np.maximum(x, _PFLOOR), 1 - _PFLOOR)
            z = np.empty((self.nvar, 2))
            z[:, 0] = 1 - v
            z[:, 1] = v
            return z
        z = np.maximum(x, _PFLOOR).reshape(self.nvar, self.size)
        return z / z.sum(axis=1, keepdims=True)

    def _by_x(self, g):
        """Chain rule from per-row gradients to x: the binary packing moves
        the two coordinates of a row in opposite directions."""
        return g[..., 1] - g[..., 0] if self.binary else g

    # The kernels evaluate each term as the per-call kernels kl_arr,
    # gjs_arr, i1_arr and i2_arr do, so SLSQP takes the same steps to the
    # last bit; the one-pass layout is the only change.

    def objective(self, x):
        """KL objective and its gradient with respect to x."""
        w, z = self.weights, self.unpack(x)
        val = float((w * (z * np.log(z / self.targets)).sum(axis=1)).sum())
        g = w[:, None] * (np.log(np.maximum(z, _PFLOOR) / self._r_floor) + 1.0)
        return val, self._by_x(g).ravel()

    def scores(self, x):
        """Per-constraint GJS sums and their Jacobian with respect to x:
        GJS(p, q) = a*D(p||m) + D(q||m), m = (a*p + q)/(1 + a), with
        gradient a*log((1 + a)p/(a*p + q)) in p and log((1 + a)q/(a*p + q))
        in q."""
        a = self.alpha
        pc, pa, pb = self._pc, self._pa, self._pb
        z = self.unpack(x)
        p, q = z[pa], z[pb]
        m = (a * p + q) / (1.0 + a)
        den = a * p + q
        g = a * (p * np.log(p / m)).sum(axis=1) + (q * np.log(q / m)).sum(axis=1)
        ga = self._by_x(a * np.log((1.0 + a) * p / den))
        gb = self._by_x(np.log((1.0 + a) * q / den))
        jac = np.zeros((self.lams.size, self.nvar) + ga.shape[1:])
        jac[pc, pa] = ga
        jac[pc, pb] = gb
        # clamp float noise per pair; GJS is non-negative
        vals = np.bincount(pc, weights=np.where(g > 0.0, g, 0.0), minlength=self.lams.size)
        return vals, jac.reshape(self.lams.size, -1)

    def _at(self, x):
        key = x.tobytes()
        if key != self._key:
            self._key = key
            self._cached = self.objective(x) + self.scores(x)
        return self._cached

    def certify(self, x):
        """KL cost of x and whether every constraint holds there, evaluated
        afresh rather than taken from the optimizer."""
        val, _ = self.objective(x)
        g, _ = self.scores(x)
        return val, bool(np.all(g <= self.lams + FEAS_TOL))

    def solve(self, starts, also=()):
        """Best certified point among the SLSQP runs from the starts, the
        starts, and the points `also`: (value, Z, iterations, converged).
        Callers pass the tied point, where every score is 0, as a start or
        in `also`, so some candidate always certifies."""
        cons = [{
            "type": "ineq",
            "fun": lambda x: self.lams - self._at(x)[2],
            "jac": lambda x: -self._at(x)[3],
        }]
        if self.binary:
            bounds = [(_PFLOOR, 1 - _PFLOOR)] * self.nvar
        else:
            bounds = [(_PFLOOR, 1.0)] * (self.nvar * self.size)
            rows = np.kron(np.eye(self.nvar), np.ones(self.size))
            cons.append({
                "type": "eq",
                "fun": lambda x: x.reshape(self.nvar, self.size).sum(axis=1) - 1.0,
                "jac": lambda x: rows,
            })
        lo, hi = np.array(bounds).T
        starts = [np.clip(np.asarray(x0, dtype=np.float64), lo, hi) for x0 in starts]
        candidates = []
        nit = 0
        for x0 in starts:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                res = minimize(
                    lambda x: self._at(x)[0],
                    x0,
                    jac=lambda x: self._at(x)[1],
                    method="SLSQP",
                    bounds=bounds,
                    constraints=cons,
                    options={"maxiter": 300, "ftol": 1e-12},
                )
            nit += int(res.get("nit", 0))
            candidates.append((res.x, bool(res.success)))
        # the starts come last, so they win only when strictly cheaper
        best = None
        for x, ok in candidates + [(x0, False) for x0 in starts + list(also)]:
            val, feas = self.certify(x)
            if feas and (best is None or val < best[0]):
                best = (val, x, ok)
        val, x, ok = best
        return max(val, 0.0), self.unpack(x), nit, ok


def _blend_feasible(prob: _ConstrainedKl, xi, xt, lam_slack=1e-9):
    """Largest step from a strictly feasible point xi toward the target xt
    (both packed) that keeps every constraint satisfied; gives the solver a
    warm start near the unconstrained optimum."""
    for theta in (1.0, 0.9, 0.7, 0.5, 0.3, 0.15, 0.05, 0.0):
        x = (1 - theta) * xi + theta * xt
        g, _ = prob.scores(x)
        if np.all((g <= prob.lams - lam_slack) | (prob.lams <= 0)):
            return x
    return xi


# ---------------------------------------------------------------------------
# the false-reject exponent function and its zero-threshold closed form
# ---------------------------------------------------------------------------

def _tied_components(pair_lists):
    """Connected components of the equality graph forced by zero scores under
    every constraint: Psi_j = Omega_i for each (i, j) of each pair list."""
    parent = {}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def union(u, v):
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    for pairs in pair_lists:
        for i, j in pairs:
            union(("x", i), ("y", j))
    comps = {}
    for node in parent:
        comps.setdefault(find(node), []).append(node)
    return list(comps.values())


def _zero_solution(p_dists, refs, pair_lists, alpha):
    """Exact minimum of the KL objective under equality-tied components."""
    total = 0.0
    assign = {}
    for comp in _tied_components(pair_lists):
        targets, weights = [], []
        for kind, idx in comp:
            if kind == "x":
                targets.append(p_dists[idx])
                weights.append(alpha)
            else:
                targets.append(refs[idx])
                weights.append(1.0)
        val, arg = min_weighted_kl(WeightedKlProblem(tuple(targets), tuple(weights)))
        total += val
        for node in comp:
            assign[node] = arg
    return total, assign


def _problem(p_dists, refs, pair_lists, alpha, lam):
    """The KL problem with one score constraint per pair list (a rival pair
    (t, s), or one hypothesis for its relaxation) at threshold lam > 0.
    Sequences outside the pair lists stay at their targets at no cost.
    Returns the problem, its x and y sequences, and two packed points: the
    tied point, where every score is 0, and the targets."""
    free_x = sorted({i for pairs in pair_lists for i, _ in pairs})
    free_y = sorted({j for pairs in pair_lists for _, j in pairs})
    ix = {i: k for k, i in enumerate(free_x)}
    iy = {j: len(free_x) + k for k, j in enumerate(free_y)}
    target_pt = [p_dists[i].probs for i in free_x] + [refs[j].probs for j in free_y]
    weights = [alpha] * len(free_x) + [1.0] * len(free_y)
    cons = [([(ix[i], iy[j]) for i, j in pairs], lam) for pairs in pair_lists]
    prob = _ConstrainedKl(target_pt, weights, cons, alpha)
    _, tied = _zero_solution(p_dists, refs, pair_lists, alpha)
    tied_pt = [tied[("x", i)].probs for i in free_x] + [tied[("y", j)].probs for j in free_y]
    return prob, free_x, free_y, prob.pack(tied_pt), prob.pack(target_pt)


def _solve_pair(p_dists, refs, t_h, s_h, alpha, lam, warm=None):
    """Constrained minimum for one (t, s) pair at threshold lam > 0, by
    SLSQP from the tied point, a blend toward the targets and `warm`."""
    prob, free_x, free_y, tied, target = _problem(
        p_dists, refs, [t_h.pairs, s_h.pairs], alpha, lam
    )
    starts = [tied, _blend_feasible(prob, tied, target)]
    if warm is not None:
        starts.append(warm)
    val, zs, nit, ok = prob.solve(starts)
    return val, zs, free_x, free_y, nit, ok, prob.pack(zs)


def _relaxation_bounds(p_dists, refs, space, l, alpha, lam, warm):
    """G_h(lam) for every hypothesis h: the pair objective under h's score
    constraint alone, so max(G_t, G_s) <= F_{t,s}. G_l = 0, since the
    targets score 0 under the truth, and pairs h shares with l are dropped
    for the same reason. A relaxation that did not converge bounds nothing
    and counts as 0. Returns the bounds and the SLSQP iterations spent."""
    l_pairs = set(space[l].pairs)
    bounds = [0.0] * space.count
    total_nit = 0
    for h in range(space.count):
        if h == l:
            continue
        pairs = [p for p in space[h].pairs if p not in l_pairs]
        prob, _, _, tied, target = _problem(p_dists, refs, [pairs], alpha, lam)
        # a bound needs one converged run: from the previous grid point's
        # optimum when there is one, else from the blend
        x0 = warm.get((h,))
        if x0 is None:
            x0 = _blend_feasible(prob, tied, target)
        val, zs, nit, ok = prob.solve([x0], also=[tied])
        warm[(h,)] = prob.pack(zs)
        total_nit += nit
        bounds[h] = val if ok else 0.0
    return bounds, total_nit


def false_reject_exponent(
    p_dists,
    q_dists,
    h_l: MatchHypothesis,
    space: HypothesisSpace,
    lam: float,
    alpha: float,
    *,
    _warm: dict | None = None,
) -> ExponentSolution:
    """min over hypothesis pairs (t, s), t != s, of the KL cost of pulling the
    joint types into the region where both scores fall below lam.

    At lam > 0 with more than one pair, pairs are solved in ascending order
    of their relaxation bound max(G_t, G_s), and the rest are skipped once
    that bound reaches the best value found (by the SKIP_REL, SKIP_ABS
    margin); `pairs_solved` and `pairs_skipped` count both."""
    if lam < 0:
        raise InputError(f"lambda must be >= 0, got {lam}")
    check_consistent(p_dists, q_dists, h_l)
    l = space.index_of(h_l)
    refs = reference_psis(p_dists, q_dists, h_l)
    m1, m2 = len(p_dists), len(q_dists)
    if space.count < 2:
        return ExponentSolution(math.inf, None, None, None, True, 0, note="single_hypothesis")

    pop = [population_score(p_dists, q_dists, space[t], alpha) for t in range(space.count)]
    rival = min(pop[t] for t in range(space.count) if t != l)
    if rival <= lam:
        t_best = min(t for t in range(space.count) if t != l and pop[t] <= lam)
        return ExponentSolution(
            0.0,
            tuple(p_dists),
            tuple(refs),
            (min(l, t_best), max(l, t_best)),
            True,
            0,
            note="zero_condition",
        )

    order = sorted(
        combinations(range(space.count), 2), key=lambda ts: max(pop[ts[0]], pop[ts[1]])
    )
    warm = _warm if _warm is not None else {}
    total_nit = 0
    bound = [0.0] * space.count
    if lam > 0.0 and len(order) > 1:
        bound, total_nit = _relaxation_bounds(p_dists, refs, space, l, alpha, lam, warm)
        # stable: pairs with equal bounds keep the population-score order
        order.sort(key=lambda ts: max(bound[ts[0]], bound[ts[1]]))
    best = None
    solved = 0
    for t, s in order:
        if best is not None and max(bound[t], bound[s]) >= best[0] * (1 + SKIP_REL) + SKIP_ABS:
            break
        t_h, s_h = space[t], space[s]
        solved += 1
        if lam == 0.0:
            val, zs_map = _zero_solution(p_dists, refs, [t_h.pairs, s_h.pairs], alpha)
            ok = True
        else:
            val, zs, free_x, free_y, nit, ok, packed = _solve_pair(
                p_dists, refs, t_h, s_h, alpha, lam, warm.get((t, s))
            )
            total_nit += nit
            warm[(t, s)] = packed
            zs_map = {("x", i): Distribution(zs[k]) for k, i in enumerate(free_x)}
            zs_map.update(
                {("y", j): Distribution(zs[len(free_x) + k]) for k, j in enumerate(free_y)}
            )
        if best is None or val < best[0]:
            omegas = tuple(
                zs_map.get(("x", i), p_dists[i]) for i in range(m1)
            )
            psis = tuple(zs_map.get(("y", j), refs[j]) for j in range(m2))
            best = (val, omegas, psis, (t, s), ok)
            if val <= 1e-15:
                break
    val, omegas, psis, pair, ok = best
    return ExponentSolution(
        val, omegas, psis, pair, ok, total_nit,
        pairs_solved=solved, pairs_skipped=len(order) - solved,
    )


def false_reject_curve(p_dists, q_dists, h_l, space, lams, alpha):
    """false_reject_exponent along an ascending threshold grid, warm-starting
    each pair subproblem and each relaxation from the previous grid point."""
    warm: dict = {}
    return [
        false_reject_exponent(p_dists, q_dists, h_l, space, lam, alpha, _warm=warm)
        for lam in lams
    ]


def max_false_reject_exponent(p_dists, q_dists, h_l, space, alpha: float) -> float:
    """Ceiling of the false-reject exponent, F(0), assembled per linked
    column group.

    For each rival pair (t, s), the y-columns that t or s use are merged
    whenever one x-sequence is mapped to two of them (by t to one, by s to
    the other). Each group is one weighted-KL minimization over its
    columns' references (weight 1) and the P_i mapped into it (weight
    alpha), since a zero score under both hypotheses forces all of them to
    one distribution. The ceiling is the smallest sum over groups. When no
    x-sequence links two columns, every group is a single column and this
    is the per-column formula; that is always so for M2 = 1."""
    check_consistent(p_dists, q_dists, h_l)
    refs = reference_psis(p_dists, q_dists, h_l)
    best = math.inf
    for t, s in combinations(range(space.count), 2):
        t_h, s_h = space[t], space[s]
        # columns linked through a shared x-sequence point to one root
        root = {j: j for j in t_h.b_set | s_h.b_set}

        def find(j):
            while root[j] != j:
                j = root[j]
            return j

        sigma_s = s_h.sigma
        for i, j in t_h.pairs:
            if i in sigma_s:
                root[find(j)] = find(sigma_s[i])
        groups = {}
        for j in root:
            groups.setdefault(find(j), (set(), set()))[0].add(j)
        for i, j in t_h.pairs + s_h.pairs:
            groups[find(j)][1].add(i)
        total = 0.0
        for cols, xs in groups.values():
            targets = tuple(refs[j] for j in sorted(cols)) + tuple(
                p_dists[i] for i in sorted(xs)
            )
            weights = (1.0,) * len(cols) + (alpha,) * len(xs)
            val, _ = min_weighted_kl(WeightedKlProblem(targets, weights))
            total += val
        best = min(best, total)
    return best


# ---------------------------------------------------------------------------
# unknown match count: spurious-match and false-alarm exponents
# ---------------------------------------------------------------------------

def _unmatched_pairs(m1: int, m2: int, h_l: MatchHypothesis | None) -> list:
    """(i, j) pairs with neither sequence matched under h_l; every pair for
    the null hypothesis (h_l None)."""
    a_l, b_l = (h_l.a_set, h_l.b_set) if h_l is not None else ((), ())
    return [(i, j) for i in range(m1) for j in range(m2) if i not in a_l and j not in b_l]


def spurious_match_exponent(
    p_dists, q_dists, h_l: MatchHypothesis | None, lam1: float, alpha: float
) -> float:
    """min over unmatched (i, j) (all pairs when h_l is None) of the KL cost
    of making that pair look matched at level lam1; +inf when no pair is
    eligible (K = M2). At lam1 = 0 the pair must share one distribution, and
    the cost is the weighted-KL closed form."""
    if lam1 < 0:
        raise InputError(f"lambda1 must be >= 0, got {lam1}")
    best = math.inf
    for i, j in _unmatched_pairs(len(p_dists), len(q_dists), h_l):
        p, q = p_dists[i], q_dists[j]
        if gjs_arr(p.probs, q.probs, alpha) <= lam1:
            return 0.0
        val, arg = min_weighted_kl(WeightedKlProblem((p, q), (alpha, 1.0)))
        if lam1 > 0.0:
            prob = _ConstrainedKl(
                [p.probs, q.probs], [alpha, 1.0], [([(0, 1)], lam1)], alpha
            )
            tied = prob.pack([arg.probs, arg.probs])
            val, _, _, _ = prob.solve(
                [tied, _blend_feasible(prob, tied, prob.pack([p.probs, q.probs]))]
            )
        best = min(best, val)
    return best


def min_unmatched_gjs(p_dists, q_dists, h_l: MatchHypothesis | None, alpha: float) -> float:
    """Smallest GJS over unmatched pairs (all pairs for the null hypothesis);
    +inf when K = M2 leaves no eligible pair."""
    pairs = _unmatched_pairs(len(p_dists), len(q_dists), h_l)
    if not pairs:
        return math.inf
    return min(gjs_arr(p_dists[i].probs, q_dists[j].probs, alpha) for i, j in pairs)


def two_phase_exponents(
    p_dists,
    q_dists,
    h_l: MatchHypothesis,
    lam1: float,
    lam2: float,
    alpha: float,
    cap: int = DEFAULT_CAP,
) -> dict:
    """Achievable exponent lower bounds of the two-phase test under h_l:
    mismatch >= min(lam1, lam2, f), false reject >= min(lam1, f, F(lam2)),
    false alarm >= the all-pairs variant of f at lam1."""
    space = enumerate_space(len(p_dists), len(q_dists), h_l.k, cap=cap)
    f_lk = spurious_match_exponent(p_dists, q_dists, h_l, lam1, alpha)
    f_0 = spurious_match_exponent(p_dists, q_dists, None, lam1, alpha)
    big_f = false_reject_exponent(p_dists, q_dists, h_l, space, lam2, alpha).value
    return {
        "mismatch_exp": min(lam1, lam2, f_lk),
        "false_reject_exp": min(lam1, f_lk, big_f),
        "false_alarm_exp": f_0,
    }


def xi_factor(m2: int, big_n: int, n: int, alphabet_size: int, m1: int) -> float:
    """Polynomial prefactor T*M2*(N+1)^(M2|X|)*(n+1)^(M2|X|) multiplying the
    finite-n exponential bounds of the two-phase test."""
    from .hypotheses import t_count

    total = sum(t_count(m1, m2, k) for k in range(1, m2 + 1))
    return float(total * m2 * (big_n + 1.0) ** (m2 * alphabet_size) * (n + 1.0) ** (m2 * alphabet_size))


def two_phase_finite_n_bounds(
    p_dists,
    q_dists,
    h_l: MatchHypothesis,
    lam1: float,
    lam2: float,
    alpha: float,
    n: int,
    cap: int = DEFAULT_CAP,
) -> dict:
    """Non-asymptotic two-phase bounds at sample length n: mismatch and false
    alarm carry the xi prefactor against the estimation exponents evaluated
    at the inflated thresholds; values above one are vacuous but reported
    as-is."""
    m1, m2 = len(p_dists), len(q_dists)
    s = p_dists[0].size
    big_n = int(round(n * alpha))
    lam1_n = effective_threshold(lam1, h_l.k, s, n, alpha)
    xi = xi_factor(m2, big_n, n, s, m1)
    f_lk_n = spurious_match_exponent(p_dists, q_dists, h_l, lam1_n, alpha)
    f_0_n = spurious_match_exponent(p_dists, q_dists, None, lam1_n, alpha)
    mismatch = (
        xi * math.exp(-n * f_lk_n) if math.isfinite(f_lk_n) else 0.0
    ) + math.exp(-n * lam1) + math.exp(-n * lam2)
    false_alarm = xi * math.exp(-n * f_0_n) if math.isfinite(f_0_n) else 0.0
    return {
        "mismatch_bound": mismatch,
        "false_alarm_bound": false_alarm,
        "xi": xi,
    }


def simple_test_floor(
    p_dists, q_dists, space: HypothesisSpace, l: int, lam: float, alpha: float
) -> float:
    """min over y-columns of the single-column false-reject exponent; a lower
    bound for the joint exponent when K = M2."""
    if space.k != space.m2:
        raise InputError("the repeated single-match comparison assumes K = M2")
    h_l = space[l]
    check_consistent(p_dists, q_dists, h_l)
    inv = h_l.sigma_inv
    sub_space = enumerate_space(len(p_dists), 1, 1)
    best = math.inf
    for j in range(len(q_dists)):
        h_sub = MatchHypothesis(((inv[j], 0),))
        sol = false_reject_exponent(
            p_dists, [q_dists[j]], h_sub, sub_space, lam, alpha
        )
        best = min(best, sol.value)
    return best
