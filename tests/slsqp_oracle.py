"""The multi-start SLSQP solve of the exponent pair problems, kept as an
oracle for the Newton-KKT solver of `seqmatch.exponents._PairProblem.solve`.

`slsqp_solve` takes the arguments of `_PairProblem` plus the threshold and
returns (value, {id: argmin}, iterations, converged, packed argmin): SLSQP
from the tied point, from a blend toward the targets and from `warm`, with
every candidate, the starts included, certified by a fresh evaluation of
the objective and the constraints (to FEAS_TOL).
`violations` says how far a point breaks each constraint.
"""

import math
import warnings

import numpy as np
from scipy.optimize import minimize

from seqmatch.core import Distribution
from seqmatch.exponents import FEAS_TOL, _zero_solution

PFLOOR = 1e-12


class _ConstrainedKl:
    """min sum_k w_k D(Z_k || R_k) s.t. sum over (a,b) in c of GJS(Z_a, Z_b)
    <= lam_c. The distributions Z_k are the rows of an (nvar, |X|) array.
    The objective with its gradient, and every constraint with its Jacobian
    row, are each computed in one vectorized pass, cached per iterate because
    SLSQP asks for values and derivatives in separate calls."""

    def __init__(self, targets, weights, constraints, alpha):
        self.targets = np.array(targets, dtype=np.float64)
        self.nvar, self.size = self.targets.shape
        # each row lives on its target's support, with 0 log 0 = 0 off it
        self._free = self.targets > 0
        self.weights = np.asarray(weights, dtype=np.float64)
        self.alpha = float(alpha)
        self.lams = np.array([lam for _, lam in constraints], dtype=np.float64)
        flat = [(c, a, b) for c, (pairs, _) in enumerate(constraints) for a, b in pairs]
        self._pc, self._pa, self._pb = (np.array(v, dtype=np.intp) for v in zip(*flat))
        self._r_floor = np.maximum(self.targets, PFLOOR)
        self._key = None

    # the variables x are the coordinates on each target's support, with
    # one simplex equality per distribution

    def pack(self, dists):
        return np.asarray(dists, dtype=np.float64)[self._free]

    def unpack(self, x) -> np.ndarray:
        z = np.zeros((self.nvar, self.size))
        z[self._free] = np.maximum(x, PFLOOR)
        return z / z.sum(axis=1, keepdims=True)

    def objective(self, x):
        """KL objective and its gradient with respect to x."""
        w, z = self.weights, self.unpack(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = float((w * _xlog(z, self.targets).sum(axis=1)).sum())
        g = w[:, None] * (np.log(np.maximum(z, PFLOOR) / self._r_floor) + 1.0)
        return val, g[self._free]

    def scores(self, x):
        """Per-constraint GJS sums and their Jacobian with respect to x."""
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
        vals = np.bincount(pc, weights=np.where(g > 0.0, g, 0.0), minlength=self.lams.size)
        return vals, jac[:, self._free]

    def _at(self, x):
        key = x.tobytes()
        if key != self._key:
            self._key = key
            self._cached = self.objective(x) + self.scores(x)
        return self._cached

    def certify(self, x):
        val, _ = self.objective(x)
        g, _ = self.scores(x)
        return val, bool(np.all(g <= self.lams + FEAS_TOL))

    def solve(self, starts):
        """Best certified point among the SLSQP runs from the starts and the
        starts themselves: (value, Z, iterations, converged)."""
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
        bounds = [(PFLOOR, 1.0)] * row_of.size
        starts = [np.clip(np.asarray(x0, dtype=np.float64), PFLOOR, 1.0) for x0 in starts]
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


def _blend_feasible(prob, xi, xt, lam_slack=1e-9):
    """Largest step from a strictly feasible point xi toward the target xt
    that keeps every constraint satisfied."""
    for theta in (1.0, 0.9, 0.7, 0.5, 0.3, 0.15, 0.05, 0.0):
        x = (1 - theta) * xi + theta * xt
        g, _ = prob.scores(x)
        if np.all((g <= prob.lams - lam_slack) | (prob.lams <= 0)):
            return x
    return xi


def slsqp_solve(dists, weights, edge_lists, alpha, lam, warm=None):
    """`_PairProblem.solve` by multi-start SLSQP: (value, {id: argmin},
    iterations, converged, packed argmin)."""
    ids = sorted({u for edges in edge_lists for edge in edges for u in edge})
    index = {u: k for k, u in enumerate(ids)}
    cons = [([(index[a], index[b]) for a, b in edges], lam) for edges in edge_lists]
    prob = _ConstrainedKl([dists[u].probs for u in ids], [weights[u] for u in ids], cons, alpha)
    target_pt = [dists[u].probs for u in ids]
    _, tied = _zero_solution(dists, weights, edge_lists)
    tied_pt = [tied.get(u) for u in ids]
    tied_pt = target_pt if None in tied_pt else [z.probs for z in tied_pt]
    tied_x = prob.pack(tied_pt)
    starts = [tied_x, _blend_feasible(prob, tied_x, prob.pack(target_pt))]
    if warm is not None:
        starts.append(warm)
    val, zs, nit, ok = prob.solve(starts)
    return val, {u: Distribution(z) for u, z in zip(ids, zs)}, nit, ok, prob.pack(zs)


def violations(edge_lists, alpha, lam, argmin):
    """How far each constraint's score exceeds lam at the argmin {id: Z},
    and 0 where it holds. Each GJS term is p log1p((p - q)/(a p + q)) (and
    its q twin), which keeps its digits where p and q nearly agree, so a
    breach far below the rounding of the p log(p / m) form still shows."""
    out = []
    for edges in edge_lists:
        total = 0.0
        for a, b in edges:
            p, q = argmin[a].probs, argmin[b].probs
            den = alpha * p + q
            with np.errstate(divide="ignore", invalid="ignore"):
                tp = np.where(p > 0.0, p * np.log1p((p - q) / den), 0.0)
                tq = np.where(q > 0.0, q * np.log1p(alpha * (q - p) / den), 0.0)
            total += max(alpha * tp.sum() + tq.sum(), 0.0)
        out.append(max(total - lam, 0.0))
    return np.array(out)
