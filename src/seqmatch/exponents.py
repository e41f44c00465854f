"""Large-deviations calculus: population scores, the false-reject exponent
function and its ceiling, the match-count-estimation exponents, and the
two-phase exponent composition.

The constrained minimizations are convex (KL objectives, GJS sublevel-set
constraints, both jointly convex), so SLSQP from feasible starts finds the
global minimum; every returned solution is re-certified by evaluating the
objective and constraints from scratch, independent of the optimizer state,
and the feasible starts are candidates too. Each variable distribution stays
on its target's support, where 0 log 0 = 0. At threshold zero the
constraints degenerate to equalities and the problem collapses to tied
components, each solved exactly by the geometric-mean weighted-KL closed
form.

The false-reject exponent is a minimum over rival hypothesis pairs. Each
pair is bounded below by the larger of two relaxations that keep one
hypothesis's constraint each. Those bounds come from weak duality, with no
SLSQP: the Lagrangian of a relaxation splits into one term per matched pair,
so one table of per-pair dual values over a multiplier grid, computed once
per curve by batched Newton steps, bounds every relaxation at once; each
value is lowered by its Frank-Wolfe gap and its rounding error, so it is a
lower bound however accurate the Newton steps were. Pairs are solved in
ascending order of their bound, and the rest are skipped once it reaches
the best value found, by a margin for the solver's tolerance.
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
from .glrt import batch_scores, effective_threshold
from .hypotheses import HypothesisSpace, enumerate_space, t_count

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
    constrained KL minimization; value may be +inf (flagged in note).
    `lower` is a certified lower bound on the exponent; `value` is the
    cost of a point feasible to FEAS_TOL, so it can undercut `lower` by
    as much as that slack is worth."""

    value: float
    argmin_omegas: tuple | None
    argmin_psis: tuple | None
    active_pair: tuple | None
    converged: bool
    iterations: int
    note: str | None = None
    pairs_solved: int = 0
    pairs_skipped: int = 0
    lower: float = 0.0


def population_score(p_dists, q_dists, h: MatchHypothesis, alpha: float) -> float:
    """Sum of GJS(P_i, Q_j, alpha) over the matched pairs of h."""
    return float(
        sum(gjs_arr(p_dists[i].probs, q_dists[j].probs, alpha) for i, j in h.pairs)
    )


def population_scores(p_dists, q_dists, space: HypothesisSpace, alpha: float) -> np.ndarray:
    """The population score of every hypothesis of the space, in index
    order: one gather over the (M1, M2) table of GJS(P_i, Q_j, alpha)."""
    table = np.array([[gjs_arr(p.probs, q.probs, alpha) for q in q_dists] for p in p_dists])
    return batch_scores(table, space)


def min_rival_score(p_dists, q_dists, space: HypothesisSpace, l: int, alpha: float) -> float:
    """Smallest population score among hypotheses other than l (+inf when the
    space has a single hypothesis)."""
    if space.count < 2:
        return math.inf
    return float(np.delete(population_scores(p_dists, q_dists, space, alpha), l).min())


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
        # each row lives on its target's support, with 0 log 0 = 0 off it
        self._free = self.targets > 0
        self.weights = np.asarray(weights, dtype=np.float64)
        self.alpha = float(alpha)
        self.lams = np.array([lam for _, lam in constraints], dtype=np.float64)
        # one entry per constrained (a, b) pair: its constraint, a and b; a
        # constraint is one hypothesis, so no index repeats within it
        flat = [(c, a, b) for c, (pairs, _) in enumerate(constraints) for a, b in pairs]
        self._pc, self._pa, self._pb = (np.array(v, dtype=np.intp) for v in zip(*flat))
        self._r_floor = np.maximum(self.targets, _PFLOOR)
        self._key = None

    # the variables x are the coordinates on each target's support, with
    # one simplex equality per distribution

    def pack(self, dists):
        return np.asarray(dists, dtype=np.float64)[self._free]

    def unpack(self, x) -> np.ndarray:
        z = np.zeros((self.nvar, self.size))
        z[self._free] = np.maximum(x, _PFLOOR)
        return z / z.sum(axis=1, keepdims=True)

    # The kernels evaluate each term as the per-call kernels kl_arr,
    # gjs_arr, i1_arr and i2_arr do, so SLSQP takes the same steps to the
    # last bit; the one-pass layout is the only change. Off the support a
    # term is 0 log 0 = 0, and a derivative is dropped: it is no variable.

    def objective(self, x):
        """KL objective and its gradient with respect to x."""
        w, z = self.weights, self.unpack(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = float((w * _xlog(z, self.targets).sum(axis=1)).sum())
        g = w[:, None] * (np.log(np.maximum(z, _PFLOOR) / self._r_floor) + 1.0)
        return val, g[self._free]

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
        jac = np.zeros((self.lams.size, self.nvar, self.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            g = a * _xlog(p, m).sum(axis=1) + _xlog(q, m).sum(axis=1)
            jac[pc, pa] = a * np.log((1.0 + a) * p / den)
            jac[pc, pb] = np.log((1.0 + a) * q / den)
        # clamp float noise per pair; GJS is non-negative
        vals = np.bincount(pc, weights=np.where(g > 0.0, g, 0.0), minlength=self.lams.size)
        return vals, jac[:, self._free]

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

    def solve(self, starts):
        """Best certified point among the SLSQP runs from the starts and the
        starts themselves: (value, Z, iterations, converged). Callers pass
        the tied point, where every score is 0, as a start when it exists,
        so some candidate certifies; when none does, the value is +inf at
        the first start."""
        row_of = np.nonzero(self._free)[0]
        rows = (row_of == np.arange(self.nvar)[:, None]).astype(np.float64)
        cons = [{
            "type": "ineq",
            "fun": lambda x: self.lams - self._at(x)[2],
            "jac": lambda x: -self._at(x)[3],
        }, {
            "type": "eq",
            "fun": lambda x: np.bincount(row_of, weights=x, minlength=self.nvar) - 1.0,
            "jac": lambda x: rows,
        }]
        bounds = [(_PFLOOR, 1.0)] * row_of.size
        starts = [np.clip(np.asarray(x0, dtype=np.float64), _PFLOOR, 1.0) for x0 in starts]
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
        # the starts come last, so they win only when strictly cheaper; when
        # nothing certifies, +inf bounds the minimum from above
        best = (math.inf, starts[0], False)
        for x, ok in candidates + [(x0, False) for x0 in starts]:
            val, feas = self.certify(x)
            if feas and val < best[0]:
                best = (val, x, ok)
        val, x, ok = best
        return max(val, 0.0), self.unpack(x), nit, ok


def _xlog(u, v):
    """u * log(u / v) elementwise, and 0 where u = 0."""
    return np.where(u > 0.0, u * np.log(u / v), 0.0)


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

# A problem's sequences have integer ids, x_i = i and y_j = M1 + j, which
# index one list of targets (the P_i, then the references) and one list of
# weights; an edge list is one hypothesis's matched pairs as id pairs.

def _components(edge_lists):
    """Connected components of the equality graph forced by zero scores under
    every edge list: Z_a = Z_b for each edge (a, b)."""
    parent = {}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for edges in edge_lists:
        for a, b in edges:
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    comps = {}
    for u in parent:
        comps.setdefault(find(u), []).append(u)
    return list(comps.values())


def _zero_solution(dists, weights, edge_lists):
    """Exact KL minimum under equality-tied components, with the argmin of each finite one."""
    total = 0.0
    assign = {}
    for comp in _components(edge_lists):
        val, arg = min_weighted_kl(
            WeightedKlProblem(tuple(dists[u] for u in comp), tuple(weights[u] for u in comp))
        )
        total += val
        if arg is not None:
            assign.update(dict.fromkeys(comp, arg))
    return total, assign


def _solve(dists, weights, edge_lists, alpha, lam, warm=None):
    """The KL problem with one score constraint per edge list (a rival pair
    (t, s), one hypothesis for its relaxation, or one unmatched pair) at
    threshold lam > 0, by SLSQP from the tied point, where every score is 0,
    a blend toward the targets and `warm`. Sequences outside the edge lists
    stay at their targets at no cost. When the tied sequences share no
    support there is no tied point, and the targets stand in for it.
    Returns (value, {id: argmin}, iterations, converged, packed argmin)."""
    ids = sorted({u for edges in edge_lists for edge in edges for u in edge})
    index = {u: k for k, u in enumerate(ids)}
    target_pt = [dists[u].probs for u in ids]
    cons = [([(index[a], index[b]) for a, b in edges], lam) for edges in edge_lists]
    prob = _ConstrainedKl(target_pt, [weights[u] for u in ids], cons, alpha)
    _, tied = _zero_solution(dists, weights, edge_lists)
    tied_pt = [tied.get(u) for u in ids]
    tied_pt = target_pt if None in tied_pt else [z.probs for z in tied_pt]
    tied_x = prob.pack(tied_pt)
    starts = [tied_x, _blend_feasible(prob, tied_x, prob.pack(target_pt))]
    if warm is not None:
        starts.append(warm)
    val, zs, nit, ok = prob.solve(starts)
    return val, {u: Distribution(z) for u, z in zip(ids, zs)}, nit, ok, prob.pack(zs)


# ---------------------------------------------------------------------------
# the dual relaxation bound: G_h(lam) >= sum over (i, j) in h \ l of
# phi_ij(mu) - mu * lam for every mu >= 0 (weak duality; the pairs of h \ l
# share no index, so the Lagrangian splits pair by pair)
# ---------------------------------------------------------------------------

# the multiplier grid of the bound table, log-spaced over [1e-3, 1e3]
_MU_GRID = np.logspace(-3.0, 3.0, 9)
_NEWTON_MAX = 60
# Newton stops once every Frank-Wolfe gap is this small relative to its
# value, or is down to rounding: f and the gap carry about (1 + mu)(1 + alpha)
# ulps of it
_GAP_RTOL = 1e-11
# a Newton step shrinks a coordinate of m at most by this factor: one whose
# optimum underflows then decays geometrically without stalling the rest
_SHRINK = 0.05


def _pair_duals(p, r, alpha, mu):
    """phi(mu) = min over (Om, Psi) of alpha*D(Om||P) + D(Psi||R)
    + mu*GJS(Om, Psi) for stacked rows P, R and multipliers mu > 0.

    Minimizing Om and Psi by the weighted-geometric-mean closed form leaves
    phi = min over m of f(m) = -(1 + mu)[alpha log sum P^a m^(1-a)
    + log sum R^a m^(1-a)], a = 1/(1 + mu), convex on the simplex of
    supp(P) | supp(R). Newton steps, with the simplex equality in a small
    KKT system per row, minimize it for all rows at once. Returns f at the
    final m, its Frank-Wolfe gap max_x grad.m - grad_x, and a bound on the
    rounding error of f - gap, so f - gap - err <= phi however far Newton
    got."""
    a = (1.0 / (1.0 + mu))[:, None]
    sup = (p > 0.0) | (r > 0.0)
    with np.errstate(divide="ignore"):
        lp, lr = a * np.log(p), a * np.log(r)
    pa, ra = np.exp(lp), np.exp(lr)
    m = np.where(sup, (alpha * p + r) / (1.0 + alpha), 0.0)
    rows, size = p.shape
    kkt = np.zeros((rows, size + 1, size + 1))
    kkt[:, :size, size] = kkt[:, size, :size] = sup
    rhs = np.zeros((rows, size + 1, 1))
    diag = np.arange(size)
    eps = np.finfo(np.float64).eps
    noise = 8.0 * eps * (1.0 + mu) * (1.0 + alpha)
    for step in range(_NEWTON_MAX + 1):
        # with u = P^a m^-a / sum P^a m^(1-a) and likewise w for R, the
        # gradient is -mu v, v = alpha u + w, and the Hessian is
        # mu [a diag(v / m) + (1 - a)(alpha u u' + w w')]
        mm = np.where(sup, m, 1.0)
        scale = mm ** -a
        pw, rw = pa * scale, ra * scale
        sp, sr = (pw * m).sum(axis=1), (rw * m).sum(axis=1)
        u, w = pw / sp[:, None], rw / sr[:, None]
        v = alpha * u + w
        f = -(1.0 + mu) * (alpha * np.log(sp) + np.log(sr))
        gap = mu * (np.where(sup, v, -np.inf).max(axis=1) - (v * m).sum(axis=1))
        if step == _NEWTON_MAX or np.all(gap <= _GAP_RTOL * np.abs(f) + noise):
            break
        kkt[:, :size, :size] = (1.0 - a)[:, :, None] * (
            alpha * u[:, :, None] * u[:, None, :] + w[:, :, None] * w[:, None, :]
        )
        kkt[:, diag, diag] += np.where(sup, a * v / mm, 1.0)
        rhs[:, :size, 0] = v
        d = np.linalg.solve(kkt, rhs)[:, :size, 0]
        m = np.maximum(m + d, _SHRINK * m)
        m /= m.sum(axis=1, keepdims=True)
    # a term P^a m^(1-a) of a sum is off by about |a log P| + |a log m| ulps,
    # weighted by its share u*m (w*m for R); the sums, the logs and the sum
    # of m add a few ulps each, all scaled by (1 + mu)(1 + alpha) in f and gap
    lm = a * np.abs(np.log(mm))
    with np.errstate(invalid="ignore"):
        tp = np.where(u * m > 0.0, u * m * (np.abs(lp) + lm), 0.0).sum(axis=1)
        tr = np.where(w * m > 0.0, w * m * (np.abs(lr) + lm), 0.0).sum(axis=1)
    err = 4.0 * eps * ((1.0 + mu) * (1.0 + alpha) * (size + 2.0 + np.maximum(tp, tr)) + np.abs(f))
    return f, gap, err


@dataclass(frozen=True)
class _DualTable:
    """phi_ij on _MU_GRID for the distinct pairs (i, j) that some rival
    holds and l does not, and which of them each hypothesis holds. It does
    not depend on lam."""

    uses: np.ndarray     # (T, pairs) 1 where h holds (i, j)
    phi: np.ndarray      # (pairs, grid) certified lower bounds


def _dual_table(p_dists, refs, space, l, alpha) -> _DualTable:
    # pair (i, j) has id i*M2 + j, which orders ids as the pairs sort
    ids = space.rows * space.m2 + space.cols
    rival = ~np.isin(ids, ids[l])
    pairs = np.unique(ids[rival])
    uses = np.zeros((space.count, pairs.size))
    uses[np.nonzero(rival)[0], np.searchsorted(pairs, ids[rival])] = 1.0
    p = np.array([p_dists[i].probs for i in pairs // space.m2])
    r = np.array([refs[j].probs for j in pairs % space.m2])
    k = _MU_GRID.size
    f, gap, err = _pair_duals(
        np.repeat(p, k, axis=0), np.repeat(r, k, axis=0), alpha, np.tile(_MU_GRID, pairs.size)
    )
    # phi >= 0, so a bound below 0 or not finite becomes 0
    lower = f - gap - err
    return _DualTable(uses, np.where(lower > 0.0, lower, 0.0).reshape(-1, k))


def _relaxation_bounds(table: _DualTable, lam: float) -> np.ndarray:
    """The grid bound max(0, max over mu of sum phi_ij(mu) - mu*lam) on
    G_h(lam) for every h. The truth gets 0, as G_l = 0: the targets score 0
    under it."""
    g = table.uses @ table.phi - _MU_GRID * lam
    return g.max(axis=1, initial=0.0)


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

    At lam > 0, pairs are solved in ascending order of their relaxation
    bound max(G_t, G_s), and the rest are skipped once that bound reaches
    the best value found (by the SKIP_REL, SKIP_ABS margin); `pairs_solved`
    and `pairs_skipped` count both. `lower` is the smallest bound of any
    pair; at lam = 0 and at the zero condition it is the value itself."""
    if lam < 0:
        raise InputError(f"lambda must be >= 0, got {lam}")
    check_consistent(p_dists, q_dists, h_l)
    l = space.index_of(h_l)
    refs = reference_psis(p_dists, q_dists, h_l)
    m1, m2 = len(p_dists), len(q_dists)
    dists, weights = list(p_dists) + refs, [alpha] * m1 + [1.0] * m2
    if space.count < 2:
        return ExponentSolution(
            math.inf, None, None, None, True, 0, note="single_hypothesis", lower=math.inf
        )

    pop = population_scores(p_dists, q_dists, space, alpha).tolist()
    tied = [t for t, v in enumerate(pop) if t != l and v <= lam]
    if tied:
        t_best = tied[0]
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
    bound = [0.0] * space.count
    if lam > 0.0:
        if "dual" not in warm:
            warm["dual"] = _dual_table(p_dists, refs, space, l, alpha)
        bound = _relaxation_bounds(warm["dual"], lam).tolist()
        # stable: pairs with equal bounds keep the population-score order
        order.sort(key=lambda ts: max(bound[ts[0]], bound[ts[1]]))
    best = None
    solved = 0
    total_nit = 0
    for t, s in order:
        if best is not None and max(bound[t], bound[s]) >= best[0] * (1 + SKIP_REL) + SKIP_ABS:
            break
        solved += 1
        edges = [[(i, m1 + j) for i, j in space[u].pairs] for u in (t, s)]
        if lam == 0.0:
            val, zs = _zero_solution(dists, weights, edges)
            ok = True
        else:
            val, zs, nit, ok, warm[(t, s)] = _solve(
                dists, weights, edges, alpha, lam, warm.get((t, s))
            )
            total_nit += nit
        if best is None or val < best[0]:
            z = [zs.get(u, d) for u, d in enumerate(dists)]
            best = (val, tuple(z[:m1]), tuple(z[m1:]), (t, s), ok)
            if val <= 1e-15:
                break
    val, omegas, psis, pair, ok = best
    # every pair holds l or a rival t, so its bound is at least bound[t]
    lower = val if lam == 0.0 else min(bound[t] for t in range(space.count) if t != l)
    return ExponentSolution(
        val, omegas, psis, pair, ok, total_nit,
        pairs_solved=solved, pairs_skipped=len(order) - solved, lower=lower,
    )


def false_reject_curve(p_dists, q_dists, h_l, space, lams, alpha):
    """false_reject_exponent along an ascending threshold grid, sharing one
    relaxation bound table and warm-starting each pair subproblem from the
    previous grid point."""
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
    m1, m2 = len(p_dists), len(q_dists)
    dists, weights = list(p_dists) + list(q_dists), [alpha] * m1 + [1.0] * m2
    best = math.inf
    for i, j in _unmatched_pairs(m1, m2, h_l):
        if gjs_arr(p_dists[i].probs, q_dists[j].probs, alpha) <= lam1:
            return 0.0
        edges = [[(i, m1 + j)]]
        val, tied = _zero_solution(dists, weights, edges)
        # disjoint supports: every (Om, Psi) scores the largest GJS, above lam1
        if lam1 > 0.0 and tied:
            val = _solve(dists, weights, edges, alpha, lam1)[0]
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
) -> dict:
    """Achievable exponent lower bounds of the two-phase test under h_l:
    mismatch >= min(lam1, lam2, f), false reject >= min(lam1, f, F(lam2)),
    false alarm >= the all-pairs variant of f at lam1."""
    space = enumerate_space(len(p_dists), len(q_dists), h_l.k)
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
