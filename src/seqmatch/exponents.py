"""Large-deviations calculus: population scores, the false-reject exponent
function and its ceiling, the match-count-estimation exponents, and the
two-phase exponent composition.

The constrained minimizations are convex (KL objectives, GJS sublevel-set
constraints, both jointly convex), so SLSQP from feasible starts finds the
global minimum; every returned solution is re-certified by evaluating the
objective and constraints from scratch, independent of the optimizer state.
At threshold zero the constraints degenerate to equalities and the problem
collapses to tied components, each solved exactly by the geometric-mean
weighted-KL closed form.
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
    i1_arr,
    i2_arr,
    kl_arr,
    min_weighted_kl,
)
from .glrt import effective_threshold
from .hypotheses import DEFAULT_CAP, HypothesisSpace, enumerate_space

FEAS_TOL = 1e-7
_PFLOOR = 1e-12


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
    def __init__(self, targets, weights, constraints, alpha):
        self.targets = [np.asarray(t, dtype=np.float64) for t in targets]
        self.weights = [float(w) for w in weights]
        self.constraints = constraints  # list of (pair list, lam)
        self.alpha = float(alpha)
        self.size = self.targets[0].size
        self.nvar = len(self.targets)
        self.binary = self.size == 2

    # variable packing: binary -> one scalar per distribution (prob of 1);
    # general -> all coordinates with per-distribution simplex equalities.

    def pack(self, dists):
        if self.binary:
            return np.array([d[1] for d in dists])
        return np.concatenate(dists)

    def unpack(self, x):
        if self.binary:
            v = np.clip(x, _PFLOOR, 1 - _PFLOOR)
            return [np.array([1 - vk, vk]) for vk in v]
        out = []
        for k in range(self.nvar):
            z = np.clip(x[k * self.size : (k + 1) * self.size], 0.0, None)
            out.append(z / z.sum())
        return out

    def _obj(self, x):
        zs = self.unpack(x)
        val = 0.0
        if self.binary:
            grad = np.zeros(self.nvar)
        else:
            grad = np.zeros(self.nvar * self.size)
        for k, (z, r, w) in enumerate(zip(zs, self.targets, self.weights)):
            val += w * kl_arr(z, r)
            g = w * (np.log(np.maximum(z, _PFLOOR) / np.maximum(r, _PFLOOR)) + 1.0)
            if self.binary:
                grad[k] = g[1] - g[0]
            else:
                grad[k * self.size : (k + 1) * self.size] = g
        return val, grad

    def _con(self, c_pairs, lam, x):
        zs = self.unpack(x)
        val = 0.0
        if self.binary:
            grad = np.zeros(self.nvar)
        else:
            grad = np.zeros(self.nvar * self.size)
        for a, b in c_pairs:
            za, zb = zs[a], zs[b]
            val += gjs_arr(za, zb, self.alpha)
            ga = self.alpha * i1_arr(za, zb, self.alpha)
            gb = i2_arr(za, zb, self.alpha)
            if self.binary:
                grad[a] += ga[1] - ga[0]
                grad[b] += gb[1] - gb[0]
            else:
                grad[a * self.size : (a + 1) * self.size] += ga
                grad[b * self.size : (b + 1) * self.size] += gb
        return lam - val, -grad

    def certify(self, x):
        zs = self.unpack(x)
        val = sum(w * kl_arr(z, r) for z, r, w in zip(zs, self.targets, self.weights))
        feas = all(
            sum(gjs_arr(zs[a], zs[b], self.alpha) for a, b in pairs) <= lam + FEAS_TOL
            for pairs, lam in self.constraints
        )
        return float(val), feas, zs

    def solve(self, starts):
        cons = []
        for pairs, lam in self.constraints:
            cons.append(
                {
                    "type": "ineq",
                    "fun": lambda x, p=pairs, la=lam: self._con(p, la, x)[0],
                    "jac": lambda x, p=pairs, la=lam: self._con(p, la, x)[1],
                }
            )
        if self.binary:
            bounds = [(_PFLOOR, 1 - _PFLOOR)] * self.nvar
        else:
            bounds = [(_PFLOOR, 1.0)] * (self.nvar * self.size)
            for k in range(self.nvar):
                idx = np.zeros(self.nvar * self.size)
                idx[k * self.size : (k + 1) * self.size] = 1.0
                cons.append(
                    {
                        "type": "eq",
                        "fun": lambda x, v=idx: float(v @ x) - 1.0,
                        "jac": lambda x, v=idx: v,
                    }
                )
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        best = None
        nit = 0
        for x0 in starts:
            x0 = np.clip(np.asarray(x0, dtype=np.float64), lo, hi)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                res = minimize(
                    lambda x: self._obj(x)[0],
                    x0,
                    jac=lambda x: self._obj(x)[1],
                    method="SLSQP",
                    bounds=bounds,
                    constraints=cons,
                    options={"maxiter": 300, "ftol": 1e-12},
                )
            nit += int(res.get("nit", 0))
            val, feas, zs = self.certify(res.x)
            if feas and (best is None or val < best[0]):
                best = (val, zs, bool(res.success))
        if best is None:
            # no certified point among the starts; report the tied start value
            val, feas, zs = self.certify(self.pack(
                [np.full(self.size, 1.0 / self.size)] * self.nvar))
            return max(val, 0.0), zs, nit, False
        val, zs, success = best
        return max(val, 0.0), zs, nit, success


def _blend_feasible(prob: _ConstrainedKl, interior, target, lam_slack=1e-9):
    """Largest step from a strictly feasible point toward the target that
    keeps every constraint satisfied; gives the solver a warm start near the
    unconstrained optimum."""
    xi = prob.pack(interior)
    xt = prob.pack(target)
    for theta in (1.0, 0.9, 0.7, 0.5, 0.3, 0.15, 0.05, 0.0):
        x = (1 - theta) * xi + theta * xt
        zs = prob.unpack(x)
        ok = all(
            sum(gjs_arr(zs[a], zs[b], prob.alpha) for a, b in pairs) <= lam - lam_slack
            for pairs, lam in prob.constraints
            if lam > 0
        )
        if ok:
            return x
    return xi


# ---------------------------------------------------------------------------
# the false-reject exponent function and its zero-threshold closed form
# ---------------------------------------------------------------------------

def _tied_components(t_h: MatchHypothesis, s_h: MatchHypothesis):
    """Connected components of the equality graph forced by zero scores under
    both constraint hypotheses: Psi_j = Omega_i for every pair of either."""
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

    for i, j in list(t_h.pairs) + list(s_h.pairs):
        union(("x", i), ("y", j))
    comps = {}
    for node in parent:
        comps.setdefault(find(node), []).append(node)
    return list(comps.values())


def _pair_zero_solution(p_dists, refs, t_h, s_h, alpha):
    """Exact minimum of the KL objective under equality-tied components."""
    total = 0.0
    assign = {}
    for comp in _tied_components(t_h, s_h):
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


def _pair_problem(p_dists, refs, t_h, s_h, alpha, lam):
    free_x = sorted(t_h.a_set | s_h.a_set)
    free_y = sorted(t_h.b_set | s_h.b_set)
    ix = {i: k for k, i in enumerate(free_x)}
    iy = {j: len(free_x) + k for k, j in enumerate(free_y)}
    targets = [p_dists[i].probs for i in free_x] + [refs[j].probs for j in free_y]
    weights = [alpha] * len(free_x) + [1.0] * len(free_y)
    cons = [
        ([(ix[i], iy[j]) for i, j in t_h.pairs], lam),
        ([(ix[i], iy[j]) for i, j in s_h.pairs], lam),
    ]
    return _ConstrainedKl(targets, weights, cons, alpha), free_x, free_y


def _solve_pair(p_dists, refs, t_h, s_h, alpha, lam, warm=None):
    """Constrained minimum for one (t, s) pair at threshold lam > 0."""
    prob, free_x, free_y = _pair_problem(p_dists, refs, t_h, s_h, alpha, lam)
    _, tied = _pair_zero_solution(p_dists, refs, t_h, s_h, alpha)
    tied_pt = [
        tied.get(("x", i), p_dists[i]).probs for i in free_x
    ] + [tied.get(("y", j), refs[j]).probs for j in free_y]
    target_pt = [p_dists[i].probs for i in free_x] + [refs[j].probs for j in free_y]
    starts = [prob.pack(tied_pt), _blend_feasible(prob, tied_pt, target_pt)]
    if warm is not None:
        starts.append(warm)
    val, zs, nit, ok = prob.solve(starts)
    return val, zs, free_x, free_y, nit, ok, prob.pack(zs)


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
    joint types into the region where both scores fall below lam."""
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
    best = None
    total_nit = 0
    for t, s in order:
        t_h, s_h = space[t], space[s]
        if lam == 0.0:
            val, assign = _pair_zero_solution(p_dists, refs, t_h, s_h, alpha)
            zs_map = assign
            free_x = sorted(t_h.a_set | s_h.a_set)
            free_y = sorted(t_h.b_set | s_h.b_set)
            ok = True
        else:
            warm = _warm.get((t, s)) if _warm is not None else None
            val, zs, free_x, free_y, nit, ok, packed = _solve_pair(
                p_dists, refs, t_h, s_h, alpha, lam, warm
            )
            total_nit += nit
            if _warm is not None:
                _warm[(t, s)] = packed
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
    return ExponentSolution(val, omegas, psis, pair, ok, total_nit)


def false_reject_curve(p_dists, q_dists, h_l, space, lams, alpha):
    """false_reject_exponent along an ascending threshold grid, warm-starting
    each pair subproblem from the previous grid point."""
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
            tied_pt = [arg.probs, arg.probs]
            target_pt = [p.probs, q.probs]
            starts = [prob.pack(tied_pt), _blend_feasible(prob, tied_pt, target_pt)]
            val, _, _, _ = prob.solve(starts)
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
