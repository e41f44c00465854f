"""The Newton-KKT pair solve as it was before each step did its work once,
kept as a bitwise oracle for `seqmatch.exponents._newton` and
`seqmatch.exponents._PairProblem.values`.

`values`, `newton_system`, `step` and `newton` take a `_PairProblem` and
read only its packing (`alpha`, `size`, `ncon`, `r`, `w`, `rows`, `nrow`,
`pc`, `ia`, `ib`, `sets`); the Hessian's 2x2 couplings are re-derived here.
This `newton` evaluates the objective and the scores again at every step,
for a point the line search has already evaluated, and `step` builds a new
KKT matrix for every active set it tries. `step` reports each call's
inputs and outputs to `trace`, when one is given.
"""

import numpy as np

from seqmatch.exponents import _FLOOR, _KKT_MAX, _REL_TOL, _STEP_NOISE, _STEP_TOL


def per_side_densities(p, q, alpha):
    """The information densities, one side at a time."""
    den = alpha * p + q
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for r, x in (((p - q) / den, p), (alpha * (q - p) / den, q)):
            d = np.log1p(r)
            np.log((1.0 + alpha) * x / den, out=d, where=np.abs(r) >= 0.5)
            np.copyto(d, 0.0, where=x == 0.0)
            out.append(d)
    return tuple(out)


def values(prob, x):
    a, xe = prob.alpha, np.append(x, 0.0)
    p, q = xe[prob.ia], xe[prob.ib]
    lp, lq = per_side_densities(p, q, a)
    g = np.maximum((a * p * lp + q * lq).sum(axis=1), 0.0)
    s = np.bincount(prob.pc[:, 0], weights=g, minlength=prob.ncon)
    return float((x * np.log(x / prob.r)) @ prob.w), s, lp, lq


def newton_system(prob, x, mu):
    a, n = prob.alpha, prob.size
    both = (prob.ia >= 0) & (prob.ib >= 0)
    hc = np.broadcast_to(prob.pc, both.shape)[both]
    ia, ib = prob.ia[both], prob.ib[both]
    hess_at = np.concatenate([ia * n + ia, ib * n + ib, ia * n + ib, ib * n + ia])
    f, s, lp, lq = values(prob, x)
    jac = np.zeros((prob.ncon, n + 1))
    jac[prob.pc, prob.ia] = a * lp
    jac[prob.pc, prob.ib] = lq
    p, q = x[ia], x[ib]
    m = np.maximum(mu, 0.0)[hc] * a / (a * p + q)
    hess = np.bincount(hess_at, np.concatenate([m * q / p, m * p / q, -m, -m]), minlength=n * n)
    hess = hess.reshape(n, n) + np.diag(prob.w / x)
    return f, prob.w * (np.log(x / prob.r) + 1.0), s, jac[:, :n], hess


def step(prob, x, active, mu, lam, drop, trace=None):
    out = _step(prob, x, active, mu, lam, drop)
    if trace is not None:
        trace.append(((x, active, mu, lam, drop), out))
    return out


def _step(prob, x, active, mu, lam, drop):
    n, rows = prob.size, prob.rows
    f, grad, s, jac, hess = newton_system(prob, x, mu)
    resid = 1.0 - np.bincount(rows, x, prob.nrow)
    first = None
    for act in [active] + [c for c in prob.sets if c != active and (drop or set(active) <= set(c))]:
        k = len(act)
        kkt = np.zeros((n + k + prob.nrow,) * 2)
        kkt[:n, :n] = hess
        kkt[n:n + k, :n] = jac[act]
        kkt[:n, n:n + k] = jac[act].T
        kkt[n + k + rows, np.arange(n)] = kkt[np.arange(n), n + k + rows] = 1.0
        try:
            sol = np.linalg.solve(kkt, np.concatenate([-grad, lam - s[act], resid]))
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(sol)):
            continue
        d, mu = sol[:n], np.zeros(prob.ncon)
        mu[act] = sol[n:n + k]
        rest = [c for c in range(prob.ncon) if c not in act]
        ok = bool(np.all(mu >= 0.0) and np.all(s[rest] + jac[rest] @ d <= lam * (1.0 + 1e-9)))
        first = first or (f, grad, s, d, act, mu, ok)
        if ok:
            return f, grad, s, d, act, mu, ok
    return first


def newton(prob, x, active, mu, lam, trace=None):
    rho = 0.0
    for step_no in range(1, _KKT_MAX + 1):
        out = step(prob, x, active, mu, lam, step_no > 1, trace)
        if out is None:
            break
        f, grad, s, d, active, mu, kkt = out
        small = (np.abs(d) <= _REL_TOL * x + _STEP_NOISE) | ((x <= 2.0 * _FLOOR) & (d < 0.0))
        if np.abs(d).max() <= _STEP_TOL and np.all(small):
            return (x + d if np.all(x + d > 0.0) else x), active, mu, step_no, kkt
        rho = max(rho, 2.0 * mu.max())
        excess = np.maximum(s - lam, 0.0).sum()
        slope = grad @ d - rho * excess
        t = 1.0
        for _ in range(40):
            trial = np.where(d < 0.0, x * np.exp(np.minimum(t * d / x, 0.0)), x + t * d)
            trial = np.maximum(trial, _FLOOR)
            trial /= np.bincount(prob.rows, trial, prob.nrow)[prob.rows]
            f_t, s_t = values(prob, trial)[:2]
            if f_t + rho * np.maximum(s_t - lam, 0.0).sum() <= f + rho * excess + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        x = trial
    return x, active, mu, step_no, False
