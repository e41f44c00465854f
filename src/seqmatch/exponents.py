"""Large-deviations calculus: population scores, the false-reject exponent
function and its ceiling, the match-count-estimation exponents, and the
two-phase exponent composition.

The constrained minimizations are convex (KL objectives, GJS sublevel-set
constraints, both jointly convex), so a KKT point is the global minimum.
Damped Newton steps on the KKT system of an active set find it, with each
variable distribution on its target's support, where 0 log 0 = 0; the
result is re-certified by evaluating the objective and the constraints
afresh. At threshold zero the constraints degenerate to equalities and the
problem collapses to tied components, each solved exactly by the
geometric-mean weighted-KL closed form.

The false-reject exponent is a minimum over rival hypothesis pairs. A pair
(t, s) is bounded below by max(G_t, G_s), where G_h keeps h's constraint
alone; the pairs of h share no index, so G_h splits pair by pair. At
threshold zero it is exact: a gather of the (M1, M2) weighted-KL closed
forms. Above zero weak duality bounds it by a gather of an (M1, M2, grid)
table of per-pair dual values, computed once per curve by batched Newton
steps and each lowered by its Frank-Wolfe gap and rounding error, so it is
a lower bound however accurate the Newton steps were. The hypotheses are
sorted once by bound, the pairs come out lazily in ascending order of the
larger one, and the rest are skipped once it reaches the best value found,
by a margin for the solver's tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .core import Distribution, InputError, MatchHypothesis, check_alpha, check_lengths, dists_equal, x_length
from .divergences import (
    WeightedKlProblem,
    gjs_arr,
    kl_arr,
    min_weighted_kl,
    stacked_densities,
)
from .glrt import effective_threshold
from .hypotheses import HypothesisSpace, batch_scores, enumerate_space, pair_sums, t_count

FEAS_TOL = 1e-7
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


def check_shape(p_dists, q_dists, h=None, space=None, omegas=None, psis=None) -> None:
    """The parts of an instance must fit: P, Q and any omegas and psis share
    one alphabet size; a space is over (len(P), len(Q)); a hypothesis lies
    inside it and, given a space, has its K; there are M1 omegas and M2 psis."""
    m1, m2 = len(p_dists), len(q_dists)
    sizes = {d.size for d in chain(p_dists, q_dists, omegas or (), psis or ())}
    if len(sizes) != 1:
        raise InputError(f"distributions disagree on alphabet size: {sorted(sizes)}")
    if space is not None and (space.m1, space.m2) != (m1, m2):
        raise InputError(f"space is over ({space.m1}, {space.m2}), the dists over ({m1}, {m2})")
    if h is not None and (max(h.a_set) >= m1 or max(h.b_set) >= m2):
        raise InputError(f"hypothesis {h.pairs} indexes outside (M1, M2) = ({m1}, {m2})")
    if h is not None and space is not None and h.k != space.k:
        raise InputError(f"hypothesis has K = {h.k}, the space K = {space.k}")
    if omegas is not None and len(omegas) != m1 or psis is not None and len(psis) != m2:
        raise InputError(f"need {m1} omegas and {m2} psis")


def population_score(p_dists, q_dists, h: MatchHypothesis, alpha: float) -> float:
    """Sum of GJS(P_i, Q_j, alpha) over the matched pairs of h."""
    check_shape(p_dists, q_dists, h)
    return float(pair_sums(_population_table(p_dists, q_dists, alpha), h.pairs))


def _population_table(p_dists, q_dists, alpha: float) -> np.ndarray:
    """The (M1, M2) table of GJS(P_i, Q_j, alpha), in one pass over
    (M1, M2, |X|)."""
    check_alpha(alpha)
    p = np.array([d.probs for d in p_dists])[:, None]
    return gjs_arr(p, np.array([d.probs for d in q_dists])[None], alpha)


def population_scores(p_dists, q_dists, space: HypothesisSpace, alpha: float) -> np.ndarray:
    """The population score of every hypothesis of the space, in index
    order: one gather over the (M1, M2) table of GJS(P_i, Q_j, alpha)."""
    check_shape(p_dists, q_dists, space=space)
    return batch_scores(_population_table(p_dists, q_dists, alpha), space)


def rivals(scores: np.ndarray, l: int, level: float | None = None, tol: float = 0.0):
    """Lambda_l, the least score of a rival of l, and the rivals, ascending,
    scoring at most `level` (by default, within a relative tol of Lambda_l).
    l is left out by its index, so no level, inf included, lets it in."""
    if scores.size < 2:
        raise InputError("tie set needs at least two hypotheses")
    if not 0 <= tol < math.inf:
        raise InputError(f"tie tolerance must be finite and >= 0, got {tol}")
    rival = np.ones(scores.size, dtype=bool)
    rival[l] = False
    big_lambda = float(scores[rival].min())
    if level is None:
        level = big_lambda + tol * (big_lambda if big_lambda > 0 else 1.0)
    return big_lambda, np.flatnonzero(rival & (scores <= level)).tolist()


def min_rival_score(p_dists, q_dists, space: HypothesisSpace, l: int, alpha: float) -> float:
    """Smallest population score among hypotheses other than l (+inf when the
    space has a single hypothesis)."""
    pop = population_scores(p_dists, q_dists, space, alpha)
    return rivals(pop, l)[0] if pop.size > 1 else math.inf


def check_consistent(p_dists, q_dists, h: MatchHypothesis, atol: float = 1e-12) -> None:
    """Matched pairs must carry equal generating distributions."""
    check_shape(p_dists, q_dists, h)
    for i, j in h.pairs:
        if not dists_equal(p_dists[i], q_dists[j], atol):
            raise InputError(
                f"(P, Q) inconsistent with the hypothesis: P_{i} != Q_{j} on matched pair"
            )


def reference_psis(p_dists, q_dists, h_l: MatchHypothesis) -> list[Distribution]:
    """Per-y reference: the matched P for matched columns, Q_j otherwise."""
    inv = h_l.sigma_inv
    return [p_dists[inv[j]] if j in inv else q_dists[j] for j in range(len(q_dists))]


def type_exponent(p_dists, q_dists, h_l, omegas, psis, alpha: float) -> float:
    """Linear KL combination whose exponential bounds the joint type
    probability under the hypothesis: sum_i a*D(Om_i||P_i) plus per-y KL to
    the reference distributions."""
    check_alpha(alpha)
    check_shape(p_dists, q_dists, omegas=omegas, psis=psis)
    check_consistent(p_dists, q_dists, h_l)
    refs = reference_psis(p_dists, q_dists, h_l)
    tot = sum(alpha * kl_arr(om.probs, p.probs) for om, p in zip(omegas, p_dists))
    tot += sum(kl_arr(ps.probs, r.probs) for ps, r in zip(psis, refs))
    return float(tot)


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


# ---------------------------------------------------------------------------
# the pair problems: min sum_u w_u D(z_u || r_u) subject to
# S_c(z) = sum over (a, b) in c of GJS(z_a, z_b) <= lam for each constraint c,
# by damped Newton steps on the KKT system of an active set
# ---------------------------------------------------------------------------

# Newton steps per solve
_KKT_MAX = 50
# a Newton step below _STEP_TOL, and below _REL_TOL of each coordinate up to
# the solve's rounding (_STEP_NOISE), ends a solve; the relative test sees a
# coordinate far from its optimum, where x log x keeps the step tiny
_STEP_TOL = 1e-10
_REL_TOL = 1e-6
_STEP_NOISE = 1e-15
# the least coordinate, so w / x stays finite; Newton pushes one below it
# only when its optimum is there
_FLOOR = 1e-280
# the continuation ladder multiplies lam by this factor per rung
_LADDER = 4.0


class _PairProblem:
    """The KL problem with one score constraint per edge list (a rival pair
    (t, s), or one unmatched pair) over the sequences the lists touch, whose
    ids are `ids`; the others stay at their targets at no cost. The
    variables x are the coordinates of the rows z_u on their targets'
    supports, with one simplex equality per row. A constraint is one
    hypothesis, so no row repeats within one. `zero` is the tied solution
    (value, {id: argmin}) and `warm` the (x, active set, multipliers,
    `values` at x) of the last solve, if it converged."""

    def __init__(self, dists, weights, edge_lists, alpha):
        self.ids = sorted({u for edges in edge_lists for edge in edges for u in edge})
        index = {u: k for k, u in enumerate(self.ids)}
        r = np.array([dists[u].probs for u in self.ids])
        self.free, self.alpha, self.ncon = r > 0, float(alpha), len(edge_lists)
        self.rows = np.nonzero(self.free)[0]
        self.r, self.nrow = r[self.free], r.shape[0]
        self.w = np.array([weights[u] for u in self.ids], dtype=np.float64)[self.rows]
        n = self.size = self.r.size
        flat = [(c, index[a], index[b]) for c, edges in enumerate(edge_lists) for a, b in edges]
        pc, pa, pb = (np.array(v, dtype=np.intp) for v in zip(*flat))
        # the packed index of each (pair, symbol) coordinate, or -1 off the
        # support, which reads a 0 appended to x (log ratio 0)
        pos = np.full(r.shape, -1)
        pos[self.free] = np.arange(n)
        self.pc, self.ia, self.ib = pc[:, None], pos[pa], pos[pb]
        # the (2, pairs, |X|) density operand, p then q, is one gather from
        # xe, x with that 0 appended; the Jacobian's last column takes the -1s
        self.at, self.xe = np.stack([self.ia, self.ib]), np.zeros(n + 1)
        self.jac_at = self.pc * (n + 1) + self.at % (n + 1)
        # the GJS Hessian couples p and q of one symbol in a 2x2 block, which
        # matters only where both are variables; the diagonal w / x comes last
        both = (self.ia >= 0) & (self.ib >= 0)
        self.hc = np.broadcast_to(self.pc, both.shape)[both]
        ia, ib = self.hab = self.at[:, both]
        self.hess_at = np.concatenate([ia * n + ia, ib * n + ib, ia * n + ib, ib * n + ia, np.arange(n) * (n + 1)])
        # the active sets a Newton step may try, smallest first, the index arrays
        # of each and of the rest, and each set size's KKT matrix with its simplex rows
        self.sets = [list(c) for k in range(self.ncon + 1) for c in combinations(range(self.ncon), k)]
        arrays = {tuple(c): np.array(c, dtype=np.intp) for c in self.sets}
        self.index = {c: (at, arrays[tuple(u for u in range(self.ncon) if u not in c)]) for c, at in arrays.items()}
        self.kkt = [np.zeros((n + k + self.nrow,) * 2) for k in range(self.ncon + 1)]
        for k, kkt in enumerate(self.kkt):
            kkt[n + k + self.rows, np.arange(n)] = kkt[np.arange(n), n + k + self.rows] = 1.0
        self.zero = _zero_solution(dists, weights, edge_lists)
        tied = self.zero[1]
        self.tied = np.array([tied[u].probs for u in self.ids])[self.free] if set(self.ids) <= tied.keys() else None
        self.warm = None

    def values(self, x):
        """The KL objective, the constraint scores and the log ratios
        log((1 + a) p / (a p + q)) and log((1 + a) q / (a p + q)) of the p
        and q sides at x, from `stacked_densities`, so a score near a tiny
        lam keeps its digits."""
        a, xe = self.alpha, self.xe
        xe[:-1] = x
        p, q = pq = xe[self.at]
        lp, lq = stacked_densities(pq, a)
        # clamp float noise per pair; GJS is non-negative
        g = np.maximum((a * p * lp + q * lq).sum(axis=1), 0.0)
        s = np.bincount(self.pc[:, 0], weights=g, minlength=self.ncon)
        return float((x * np.log(x / self.r)) @ self.w), s, lp, lq

    def newton_system(self, x, mu, vals=None):
        """The objective and its gradient, the scores and their Jacobian (ncon,
        size), and the Lagrangian's Hessian at mu; vals, if given, are the `values` at x."""
        a, n = self.alpha, self.size
        f, s, lp, lq = self.values(x) if vals is None else vals
        jac = np.zeros(self.ncon * (n + 1))
        jac[self.jac_at[0]] = a * lp
        jac[self.jac_at[1]] = lq
        # per symbol, GJS has the rank-one Hessian a/(a p + q) v v' in
        # (p, q), v = (sqrt(q/p), -sqrt(p/q)); times mu, m (q/p, p/q) is its diagonal
        p, q = pq = x[self.hab]
        m = np.maximum(mu, 0.0)[self.hc] * a / (a * p + q)
        hess = np.bincount(self.hess_at, np.concatenate([(m * pq[::-1] / pq).ravel(), -m, -m, self.w / x]))
        return f, self.w * (np.log(x / self.r) + 1.0), s, jac.reshape(self.ncon, n + 1)[:, :n], hess.reshape(n, n)

    def solve(self, lam):
        """The minimum at threshold lam >= 0. At 0 it is the tied closed form.
        Above it, Newton-KKT steps run from `warm` (a solve at another
        threshold), else from the point between the tied point and the
        targets whose larger score is about lam / 2, else from that point at
        4 lam, 16 lam, ... (the targets once feasible), carried back down.
        The result and the strictly feasible cold start are certified afresh
        (to FEAS_TOL); when neither is, the value is +inf at the targets.
        Returns (value, {id: argmin}, Newton steps, converged)."""
        if lam == 0.0:
            return self.zero[0], self.zero[1], 0, True
        nit, state, cold, rung = 0, None, None, 0
        if self.warm is not None:
            *start, vals = self.warm
            x, active, mu, nit, ok = _newton(self, *start, lam, vals)
            state = (x, active, mu) if ok else None
        if state is None:
            top = self.values(self.r)
        while state is None:
            feasible = lam * _LADDER ** rung >= top[1].max()
            if feasible or self.tied is not None:
                x0, vals = (self.r, top) if feasible else _blend(self, self.tied, lam * _LADDER ** rung, top)
                cold = x0 if rung == 0 else cold
                state = (x0, [c for c in range(self.ncon) if top[1][c] > lam * _LADDER ** rung], np.zeros(self.ncon))
                # solve at this rung, then carry the solution back down the ladder
                for i in range(rung, -1, -1):
                    x, active, mu, k, ok = _newton(self, *state, lam * _LADDER ** i, vals)
                    nit, state, vals = nit + k, (x, active, mu) if ok else None, None
                    if state is None:
                        break
            if feasible:
                break
            rung += 1
        best, self.warm = (math.inf, self.r, False), None
        for x, ok in ([(state[0], True)] if state else []) + ([(cold, False)] if cold is not None else []):
            vals = self.values(x)
            if ok:  # these values start the next warm solve
                self.warm = state + (vals,)
            if np.all(vals[1] <= lam + FEAS_TOL) and vals[0] < best[0]:
                best = (vals[0], x, ok)
        zs = np.zeros(self.free.shape)
        zs[self.free] = best[1]
        return max(best[0], 0.0), {u: Distribution(z) for u, z in zip(self.ids, zs)}, nit, best[2]


def _step(prob: _PairProblem, x, vals, active, mu, lam, drop):
    """One Newton step on the KKT system of an active set, the current set
    first: a constraint that the step's linearization breaks joins it and,
    when `drop`, one with a negative multiplier leaves it (at most four sets
    for two constraints). Returns (f, grad, s, d, active, mu, kkt), kkt
    saying whether a set passed both checks (else the first finite step)."""
    n = prob.size
    f, grad, s, jac, hess = prob.newton_system(x, mu, vals)
    neg_grad, resid = -grad, 1.0 - np.bincount(prob.rows, x, prob.nrow)
    first = None
    for act in [active] + [c for c in prob.sets if c != active and (drop or set(active) <= set(c))]:
        (at, rest), k = prob.index[tuple(act)], len(act)
        kkt = prob.kkt[k].copy()
        kkt[:n, :n] = hess
        kkt[n:n + k, :n] = ja = jac[at]
        kkt[:n, n:n + k] = ja.T
        try:
            sol = np.linalg.solve(kkt, np.concatenate([neg_grad, lam - s[at], resid]))
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(sol).all():
            continue
        d, mu = sol[:n], np.zeros(prob.ncon)
        mu[at] = sol[n:n + k]
        ok = bool((mu >= 0.0).all() and (not rest.size or (s[rest] + jac[rest] @ d <= lam * (1.0 + 1e-9)).all()))
        first = first or (f, grad, s, d, act, mu, ok)
        if ok:
            return f, grad, s, d, act, mu, ok
    return first


def _newton(prob: _PairProblem, x, active, mu, lam, vals=None):
    """Damped Newton steps on the KKT conditions of min KL s.t. S_c <= lam
    and the simplex equalities, from x > 0. Each step keeps x > 0 and
    decreases the l1 merit KL + rho * sum max(S_c - lam, 0). Returns (x,
    active set, multipliers, steps, converged); converged means that the
    KKT conditions hold at x. Each point is evaluated once: x, unless vals
    holds its `values`, then each line-search trial, reused by the next step."""
    rho, vals = 0.0, prob.values(x) if vals is None else vals
    for step in range(1, _KKT_MAX + 1):
        out = _step(prob, x, vals, active, mu, lam, step > 1)
        if out is None:
            break
        f, grad, s, d, active, mu, kkt = out
        size = np.abs(d)
        if size.max() <= _STEP_TOL and np.all((size <= _REL_TOL * x + _STEP_NOISE) | ((x <= 2 * _FLOOR) & (d < 0))):
            # the KKT conditions hold at x to O(d), and at x + d to O(d^2);
            # without them, no step makes progress
            return (x + d if np.all(x + d > 0.0) else x), active, mu, step, kkt
        rho = max(rho, 2.0 * mu.max())
        excess = np.maximum(s - lam, 0.0).sum()
        slope = grad @ d - rho * excess
        t, falls = 1.0, d < 0.0
        for _ in range(40):
            # a falling coordinate moves to x exp(t d / x): it stays positive
            # and, as that is exact for x log x, reaches an optimum far below
            # it (a symbol its tied row lacks) in a step; rows renormalized
            trial = np.where(falls, x * np.exp(np.minimum(t * d / x, 0.0)), x + t * d)
            trial = np.maximum(trial, _FLOOR, out=trial)
            trial /= np.bincount(prob.rows, trial, prob.nrow)[prob.rows]
            vals = prob.values(trial)
            if vals[0] + rho * np.maximum(vals[1] - lam, 0.0).sum() <= f + rho * excess + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        x = trial
    return x, active, mu, step, False


def _blend(prob: _PairProblem, xi, lam, top):
    """The point between xi, where every score is 0, and the targets whose
    largest score is about lam / 2 (near xi it grows as the distance squared),
    with its `values`: top's, those of the targets, if it has their bits."""
    theta = 1.0
    for _ in range(30):
        x = xi + theta * (prob.r - xi)
        vals = top if x.tobytes() == prob.r.tobytes() else prob.values(x)
        if vals[1].max() <= 0.75 * lam:
            break
        theta *= min(0.5, math.sqrt(0.5 * lam / vals[1].max()))
    return x, vals


# ---------------------------------------------------------------------------
# the relaxation bounds: G_h(0) is the sum over (i, j) in h \ l of the
# closed form c_ij, and G_h(lam) >= the sum of phi_ij(mu) - mu * lam for
# every mu >= 0 (weak duality); the pairs of h share no index, so both
# split pair by pair
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


def _dual_table(p_dists, refs, h_l, alpha) -> np.ndarray:
    """The (M1, M2, grid) table of certified lower bounds on phi_ij over
    _MU_GRID, 0 on l's pairs, where P_i = R_j. It does not depend on lam."""
    m1, m2, k = len(p_dists), len(refs), _MU_GRID.size
    p = np.repeat([d.probs for d in p_dists], m2 * k, axis=0)
    r = np.tile(np.repeat([d.probs for d in refs], k, axis=0), (m1, 1))
    f, gap, err = _pair_duals(p, r, alpha, np.tile(_MU_GRID, m1 * m2))
    # phi >= 0, so a bound below 0 or not finite becomes 0
    lower = f - gap - err
    phi = np.where(lower > 0.0, lower, 0.0).reshape(m1, m2, k)
    phi[tuple(zip(*h_l.pairs))] = 0.0
    return phi


def _relaxation_bounds(scores: np.ndarray, lam: float) -> np.ndarray:
    """The grid bound max(0, max over mu of sum phi_ij(mu) - mu*lam) on
    G_h(lam) for every h, folded row by row from the (grid, T) gather of the
    dual table. The truth gets 0, as G_l = 0: the targets score 0 under it."""
    bound, term = np.zeros(scores.shape[1]), np.empty(scores.shape[1])
    for phi, mu in zip(scores, _MU_GRID):
        np.maximum(bound, np.subtract(phi, mu * lam, out=term), out=bound)
    return bound


def _zero_table(p_dists, refs, h_l, alpha) -> np.ndarray:
    """The (M1, M2) table of c_ij = min over Z of alpha D(Z||P_i) + D(Z||R_j),
    0 on l's pairs, where P_i = R_j. Its gather is G_h(0) for every h,
    exactly, as the pairs of h share no index."""
    c = np.array([[min_weighted_kl(WeightedKlProblem((p, r), (alpha, 1.0)))[0] for r in refs]
                  for p in p_dists])
    c[tuple(zip(*h_l.pairs))] = 0.0
    return c


def _pairs_by_bound(bound, window=64):
    """Every pair (t, s), t < s, of hypotheses with its bound max(bound[t],
    bound[s]), lazily in ascending order of it: with the hypotheses in stable
    order of bound, block b pairs order[b] with each one before it. Only the
    prefix up to the window-th smallest bound, ties included, is sorted; the
    window doubles whenever the blocks run past it."""
    order = []
    for b in range(len(bound)):
        while b == len(order):
            if window < len(bound):
                kth = np.partition(bound, window - 1)[window - 1]
                prefix = np.flatnonzero(bound <= kth)
            else:
                prefix = np.arange(len(bound))
            order = prefix[np.argsort(bound[prefix], kind="stable")].tolist()
            window *= 2
        s = order[b]
        for t in order[:b]:
            yield min(t, s), max(t, s), bound[s]


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

    Pairs are solved in ascending order of their relaxation bound
    max(G_t, G_s), exact at lam = 0, and the rest are skipped once that
    bound reaches the best value found (by the SKIP_REL, SKIP_ABS margin);
    `pairs_solved` and `pairs_skipped` count both. `lower` is the smallest
    bound of any pair; at lam = 0 and at the zero condition it is the value
    itself."""
    if not lam >= 0:
        raise InputError(f"lambda must be >= 0, got {lam}")
    check_alpha(alpha)
    warm = _warm if _warm is not None else {}
    if "l" not in warm:
        check_shape(p_dists, q_dists, h_l, space)
        check_consistent(p_dists, q_dists, h_l)
        l = warm["l"] = space.index_of(h_l)
        warm["refs"] = reference_psis(p_dists, q_dists, h_l)
        warm["pop"] = population_scores(p_dists, q_dists, space, alpha)
    l, refs, pop = warm["l"], warm["refs"], warm["pop"]
    m1, m2 = len(p_dists), len(q_dists)
    dists, weights = list(p_dists) + refs, [alpha] * m1 + [1.0] * m2
    if len(space) < 2:
        return ExponentSolution(
            math.inf, None, None, None, True, 0, note="single_hypothesis", lower=math.inf
        )

    tied = rivals(pop, l, lam)[1]
    if tied:
        pair = tuple(sorted((l, tied[0])))
        return ExponentSolution(0.0, tuple(p_dists), tuple(refs), pair, True, 0, note="zero_condition")

    if lam == 0.0:
        bound = batch_scores(_zero_table(p_dists, refs, h_l, alpha), space)
    else:
        if "dual" not in warm:
            warm["dual"] = np.ascontiguousarray(batch_scores(_dual_table(p_dists, refs, h_l, alpha), space).T)
        bound = _relaxation_bounds(warm["dual"], lam)
    best = None
    solved = total_nit = 0
    for t, s, b in _pairs_by_bound(bound):
        if best is not None and b >= best[0] * (1 + SKIP_REL) + SKIP_ABS:
            break
        solved += 1
        if (t, s) not in warm:
            edges = [[(i, j + m1) for i, j in space.pairs(u).tolist()] for u in (t, s)]
            warm[(t, s)] = _PairProblem(dists, weights, edges, alpha)
        val, zs, nit, ok = warm[(t, s)].solve(lam)
        total_nit += nit
        if best is None or val < best[0]:
            z = [zs.get(u, d) for u, d in enumerate(dists)]
            best = (val, tuple(z[:m1]), tuple(z[m1:]), (t, s), ok)
            if val <= 1e-15:
                break
    val, omegas, psis, pair, ok = best
    # every pair holds l or a rival t, so its bound is at least bound[t]
    lower = val if lam == 0.0 else rivals(bound, l)[0]
    return ExponentSolution(
        val, omegas, psis, pair, ok, total_nit, pairs_solved=solved,
        pairs_skipped=len(space) * (len(space) - 1) // 2 - solved, lower=lower,
    )


def false_reject_curve(p_dists, q_dists, h_l, space, lams, alpha):
    """false_reject_exponent along an ascending threshold grid. The lam-free
    work (the check and index of h_l, the references, the population scores,
    the gathered dual bounds, each solved pair's problem and tied point) is
    done once, at the first point that needs it; each pair's problem
    warm-starts from its own last solve."""
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
    is the per-column formula; that is always so for M2 = 1. The pairs come
    in ascending order of their exact bound max(G_t(0), G_s(0)), and the
    rest are skipped once it reaches the best sum, as in
    false_reject_exponent."""
    check_alpha(alpha)
    check_shape(p_dists, q_dists, h_l, space)
    check_consistent(p_dists, q_dists, h_l)
    refs = reference_psis(p_dists, q_dists, h_l)
    best = math.inf
    bound = batch_scores(_zero_table(p_dists, refs, h_l, alpha), space)
    for t, s, b in _pairs_by_bound(bound):
        if b >= best * (1 + SKIP_REL) + SKIP_ABS:
            break
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
            targets = tuple(refs[j] for j in sorted(cols)) + tuple(p_dists[i] for i in sorted(xs))
            weights = (1.0,) * len(cols) + (alpha,) * len(xs)
            total += min_weighted_kl(WeightedKlProblem(targets, weights))[0]
        best = min(best, total)
    return best


# ---------------------------------------------------------------------------
# unknown match count: spurious-match and false-alarm exponents
# ---------------------------------------------------------------------------

def _unmatched_pairs(m1: int, m2: int, h_l: MatchHypothesis | None, touched: bool = False) -> list:
    """(i, j) pairs with neither sequence matched under h_l; every pair for
    the null hypothesis (h_l None). With touched, the other pairs."""
    a_l, b_l = (h_l.a_set, h_l.b_set) if h_l is not None else ((), ())
    return [(i, j) for i in range(m1) for j in range(m2) if (i in a_l or j in b_l) == touched]


def spurious_match_exponent(
    p_dists, q_dists, h_l: MatchHypothesis | None, lam1: float, alpha: float, *, _touched: bool = False
) -> float:
    """min over unmatched (i, j) (all pairs when h_l is None) of the KL cost
    of making that pair look matched at level lam1; +inf when no pair is
    eligible (K = M2). At lam1 = 0 the pair must share one distribution, and
    the cost is the weighted-KL closed form. With _touched, the min over the
    other pairs: the null value is the smaller of the two, no pair solved twice."""
    check_alpha(alpha)
    check_shape(p_dists, q_dists, h_l)
    if not lam1 >= 0:
        raise InputError(f"lambda1 must be >= 0, got {lam1}")
    m1, m2 = len(p_dists), len(q_dists)
    dists, weights = list(p_dists) + list(q_dists), [alpha] * m1 + [1.0] * m2
    best = math.inf
    for i, j in _unmatched_pairs(m1, m2, h_l, _touched):
        if gjs_arr(p_dists[i].probs, q_dists[j].probs, alpha) <= lam1:
            return 0.0
        prob = _PairProblem(dists, weights, [[(i, m1 + j)]], alpha)
        # disjoint supports: every (Om, Psi) scores the largest GJS, above lam1
        best = min(best, prob.solve(lam1)[0] if prob.zero[1] else math.inf)
    return best


def min_unmatched_gjs(p_dists, q_dists, h_l: MatchHypothesis | None, alpha: float) -> float:
    """Smallest GJS over unmatched pairs (all pairs for the null hypothesis);
    +inf when K = M2 leaves no eligible pair."""
    check_shape(p_dists, q_dists, h_l)
    table = _population_table(p_dists, q_dists, alpha)
    pairs = _unmatched_pairs(len(p_dists), len(q_dists), h_l)
    return min((float(table[p]) for p in pairs), default=math.inf)


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
    check_alpha(alpha)
    space = enumerate_space(len(p_dists), len(q_dists), h_l.k)
    f_lk = spurious_match_exponent(p_dists, q_dists, h_l, lam1, alpha)
    f_0 = min(f_lk, spurious_match_exponent(p_dists, q_dists, h_l, lam1, alpha, _touched=True))
    big_f = false_reject_exponent(p_dists, q_dists, h_l, space, lam2, alpha).value
    return {
        "mismatch_exp": min(lam1, lam2, f_lk),
        "false_reject_exp": min(lam1, f_lk, big_f),
        "false_alarm_exp": f_0,
    }


def _log_xi(m2: int, big_n: int, n: int, alphabet_size: int, m1: int) -> float:
    """The log of xi_factor, finite at any size."""
    total = sum(t_count(m1, m2, k) for k in range(1, m2 + 1))
    return math.log(total * m2) + m2 * alphabet_size * (math.log1p(big_n) + math.log1p(n))


def xi_factor(m2: int, big_n: int, n: int, alphabet_size: int, m1: int) -> float:
    """Polynomial prefactor T*M2*(N+1)^(M2|X|)*(n+1)^(M2|X|) multiplying the
    finite-n exponential bounds of the two-phase test; inf past float range."""
    check_lengths(n, big_n)
    with np.errstate(over="ignore"):
        return float(np.exp(_log_xi(m2, big_n, n, alphabet_size, m1)))


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
    check_alpha(alpha)
    m1, m2 = len(p_dists), len(q_dists)
    s = p_dists[0].size
    big_n = x_length(n, alpha)
    lam1_n = effective_threshold(lam1, h_l.k, s, n, alpha)
    log_xi = _log_xi(m2, big_n, n, s, m1)
    f_lk_n = spurious_match_exponent(p_dists, q_dists, h_l, lam1_n, alpha)
    f_0_n = min(f_lk_n, spurious_match_exponent(p_dists, q_dists, h_l, lam1_n, alpha, _touched=True))
    # in the log domain f = inf gives 0, and a xi past float range no inf * 0
    with np.errstate(over="ignore"):
        xi, mismatch, false_alarm = np.exp([log_xi, log_xi - n * f_lk_n, log_xi - n * f_0_n]).tolist()
    mismatch += math.exp(-n * lam1) + math.exp(-n * lam2)
    return {"mismatch_bound": mismatch, "false_alarm_bound": false_alarm, "xi": xi}


def simple_test_floor(
    p_dists, q_dists, space: HypothesisSpace, l: int, lam: float, alpha: float
) -> float:
    """min over y-columns of the single-column false-reject exponent; a lower
    bound for the joint exponent when K = M2."""
    check_shape(p_dists, q_dists, space=space)
    if space.k != space.m2:
        raise InputError("the repeated single-match comparison assumes K = M2")
    h_l = space[l]
    check_consistent(p_dists, q_dists, h_l)
    inv = h_l.sigma_inv
    sub_space = enumerate_space(len(p_dists), 1, 1)
    best = math.inf
    for j in range(len(q_dists)):
        h_sub = MatchHypothesis(((inv[j], 0),))
        sol = false_reject_exponent(p_dists, [q_dists[j]], h_sub, sub_space, lam, alpha)
        best = min(best, sol.value)
    return best
