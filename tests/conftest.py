import numpy as np
import pytest

from seqmatch import simulate, smalldev
from seqmatch.core import Distribution, MatchHypothesis

B = Distribution.bernoulli


@pytest.fixture(autouse=True)
def fresh_helper_pool():
    """Shut down the helper pool of `estimate_errors` after every test, so a
    helper forked under one test's monkeypatches never serves another."""
    yield
    with simulate._pool_lock:
        simulate._drop_pool()


@pytest.fixture(autouse=True)
def fresh_small_dev_memo():
    """Empty the small-dev memo of the n-free analysis before and after
    every test, so an entry made under one test's monkeypatches never serves
    another and every test sees a cold first call."""
    smalldev._instances.clear()
    yield
    smalldev._instances.clear()


def random_binary_instance(rng, m1=None, m2=None, k=None):
    """A random (P, Q, hypothesis) triple with matched pairs equal and every
    other pair distinct (parameters kept >= 0.02 apart)."""
    m1 = int(m1 if m1 is not None else rng.integers(2, 5))
    m2 = int(m2 if m2 is not None else rng.integers(1, min(m1, 2) + 1))
    k = int(k if k is not None else rng.integers(1, m2 + 1))
    vals = rng.permutation(np.linspace(0.06, 0.94, 23))
    vals = np.clip(vals + rng.uniform(-0.01, 0.01, size=vals.size), 0.03, 0.97)
    p_params = vals[:m1]
    a_idx = sorted(rng.choice(m1, size=k, replace=False).tolist())
    b_idx = rng.permutation(rng.choice(m2, size=k, replace=False)).tolist()
    pairs = tuple(sorted(zip(a_idx, b_idx)))
    h = MatchHypothesis(pairs)
    q_params = [None] * m2
    for i, j in pairs:
        q_params[j] = p_params[i]
    spare = iter(vals[m1:])
    for j in range(m2):
        if q_params[j] is None:
            q_params[j] = next(spare)
    return [B(t) for t in p_params], [B(t) for t in q_params], h


def gjs_table_oracle(px, qy, alpha):
    """The float GJS table that the count kernel `divergences.gjs_table`
    replaced: GJS(px[i], qy[j], alpha) for all (i, j) from the empirical
    types, broadcast over leading axes. px: (..., M1, S), qy: (..., M2, S)
    -> (..., M1, M2)."""
    p = px[..., :, None, :]
    q = qy[..., None, :, :]
    m = (alpha * p + q) / (1.0 + alpha)
    logm = np.log(np.maximum(m, 1e-300))

    def _kl(x):
        t = np.where(x > 0, x * (np.log(np.maximum(x, 1e-300)) - logm), 0.0)
        return t.sum(axis=-1)

    return np.maximum(alpha * _kl(p) + _kl(q), 0.0)
