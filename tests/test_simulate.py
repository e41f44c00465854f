import dataclasses
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import seqmatch
from seqmatch import simulate
from seqmatch.core import Alphabet, Distribution, InputError, MatchHypothesis, ProblemConfig
from seqmatch.glrt import TestConfig as GlrtConfig
from seqmatch.glrt import simple_test, two_phase_test, unnikrishnan_test
from seqmatch.simulate import (
    SimulationSpec,
    _chunk_types,
    draw_databases,
    estimate_errors,
    worst_case_sweep,
)

B = Distribution.bernoulli


def make_spec(test="unnikrishnan", trials=200, seed=7, n_grid=(100,), tc=None,
              p=None, q=None, truth="default", m=None):
    p = p or (B(0.1), B(0.5), B(0.9))
    q = q or (B(0.1), B(0.7))
    if truth == "default":
        truth = MatchHypothesis(((0, 0),))
    cfg = ProblemConfig(len(p), len(q), Alphabet(p[0].size), 2.0, n_grid[0])
    tc = tc or GlrtConfig(lam=1e-3, k=1)
    return SimulationSpec(cfg, p, q, truth, test, tc, trials, seed, n_grid)


class TestSpecValidation:
    def test_matched_pair_must_be_equal(self):
        with pytest.raises(InputError):
            make_spec(p=(B(0.2), B(0.5), B(0.9)), q=(B(0.3), B(0.7)))

    def test_unmatched_pairs_must_differ(self):
        with pytest.raises(InputError):
            make_spec(p=(B(0.1), B(0.5), B(0.9)), q=(B(0.1), B(0.5)))

    def test_null_requires_all_distinct(self):
        with pytest.raises(InputError):
            make_spec(truth=None, p=(B(0.1), B(0.5), B(0.9)), q=(B(0.5), B(0.7)))

    def test_test_config_checked(self):
        with pytest.raises(InputError):
            make_spec(tc=GlrtConfig(lam=None, k=1))

    def test_every_n_needs_a_positive_x_length(self):
        # N = round(0.3 * 1) = 0 at the second grid point only
        p, q = (B(0.1), B(0.5), B(0.9)), (B(0.1), B(0.7))
        cfg = ProblemConfig(3, 2, Alphabet(2), 0.3, 10)
        with pytest.raises(InputError, match="n = 1"):
            SimulationSpec(cfg, p, q, MatchHypothesis(((0, 0),)), "unnikrishnan",
                           GlrtConfig(lam=1e-3, k=1), 100, 7, (10, 1))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_word_rejected(self, seed):
        with pytest.raises(InputError):
            make_spec(seed=seed)

    @pytest.mark.parametrize(
        "changes,what",
        [
            ({"q_dists": (B(0.1),)}, "list lengths disagree"),
            ({"config": ProblemConfig(3, 2, Alphabet(3), 2.0, 100)}, "disagree with the alphabet"),
            ({"test": "known_k"}, "unknown test 'known_k'"),
            ({"test_config": GlrtConfig(lam=1e-3, k=3)}, "need 1 <= K <= M2"),
            ({"test_config": GlrtConfig(lam=1e-3, k=2)}, "truth has K=1 matches"),
            ({"test_config": GlrtConfig(k=1)}, "unnikrishnan test needs lam"),
            ({"test": "simple", "test_config": GlrtConfig(lambda1=0.1)}, "simple test needs lam"),
            ({"test": "two_phase"}, "two_phase test needs lambda1 and lambda2"),
            ({"trials": 0}, "trials must be >= 1"),
            ({"n_grid": ()}, "n_grid must be non-empty"),
            ({"n_grid": (100, 0)}, "n_grid must be non-empty positive"),
            ({"truth": MatchHypothesis(((3, 0),))}, "truth hypothesis indexes outside"),
        ],
        ids=["list_lengths", "alphabet", "test_name", "k_range", "truth_k", "known_k_lambda",
             "simple_lambda", "two_phase_lambdas", "trials", "empty_n_grid", "zero_n",
             "truth_outside"],
    )
    def test_rejected(self, changes, what):
        with pytest.raises(InputError, match=what):
            dataclasses.replace(make_spec(), **changes)


class TestDrawDatabases:
    def test_point_mass_constant(self):
        one = Distribution(np.array([0.0, 1.0]))
        spec = make_spec(p=(one, B(0.5), B(0.9)), q=(one, B(0.7)))
        x, y = draw_databases(spec, 50)
        assert x.counts[0].tolist() == [0, 100]
        assert y.counts[0].tolist() == [0, 50]

    def test_law_of_large_numbers(self):
        spec = make_spec(p=(B(0.5), B(0.1), B(0.9)), q=(B(0.5), B(0.7)))
        x, _ = draw_databases(spec, 100_000)
        freq = x.counts[0, 1] / 200_000
        assert abs(freq - 0.5) < 0.005

    def test_seed_determinism(self):
        spec = make_spec()
        x1, y1 = draw_databases(spec, 200)
        x2, y2 = draw_databases(spec, 200)
        assert np.array_equal(x1.counts, x2.counts)
        assert np.array_equal(y1.counts, y2.counts)

    def test_trials_differ(self):
        spec = make_spec()
        x1, _ = draw_databases(spec, 200, trial=0)
        x2, _ = draw_databases(spec, 200, trial=1)
        assert not np.array_equal(x1.counts, x2.counts)

    @pytest.mark.parametrize("trial", [0, 8191, 8192, 8193])
    def test_trial_is_the_engines_across_a_chunk_boundary(self, trial):
        spec = make_spec()
        chunk, t = divmod(trial, simulate._CHUNK)
        cx, cy = _chunk_types(spec, 100, chunk, simulate._CHUNK)
        x, y = draw_databases(spec, 100, trial)
        np.testing.assert_array_equal(x.counts, cx[..., t].T)
        np.testing.assert_array_equal(y.counts, cy[..., t].T)
        assert (x.seq_len, y.seq_len) == (200, 100)

    def test_negative_trial_rejected(self):
        with pytest.raises(InputError, match="trial"):
            draw_databases(make_spec(), 100, -1)


def _independent_types(spec, n, trials):
    """(trials, M, S) empirical types drawn by numpy's default generator,
    one multinomial per sequence, independent of the engine's streams."""
    rng = np.random.default_rng(2024)
    big_n = int(round(n * spec.config.alpha))

    def types(dists, length):
        return np.stack([rng.multinomial(length, d.probs, size=trials) for d in dists], axis=1) / length

    return types(spec.p_dists, big_n), types(spec.q_dists, n)


def _chunk_type_arrays(spec, n, chunk, size):
    """(size, M, S) empirical types of one chunk, from its (S, M, size) counts."""
    big_n = int(round(n * spec.config.alpha))
    cx, cy = _chunk_types(spec, n, chunk, size)
    return cx.transpose(2, 1, 0) / big_n, cy.transpose(2, 1, 0) / n


class TestStreamLayout:
    def test_chunk_types_match_per_trial_reference_in_distribution(self):
        d = lambda *p: Distribution(np.array(p))
        spec = make_spec(p=(d(.2, .3, .5), d(.6, .3, .1), d(.1, .1, .8)),
                         q=(d(.2, .3, .5), d(.3, .4, .3)), n_grid=(50,))
        b = 8192
        for ref, new in zip(_independent_types(spec, 50, b), _chunk_type_arrays(spec, 50, 0, b)):
            # per sequence and symbol: the mean and the variance of the type
            mean_se = np.sqrt((ref.var(0) + new.var(0)) / b)
            assert np.all(np.abs(ref.mean(0) - new.mean(0)) <= 4 * mean_se)
            m4 = lambda a: ((a - a.mean(0)) ** 4).mean(0)
            var_se = np.sqrt((m4(ref) - ref.var(0) ** 2 + m4(new) - new.var(0) ** 2) / b)
            assert np.all(np.abs(ref.var(0) - new.var(0)) <= 4 * var_se)

    def test_prefix_of_a_chunk_does_not_depend_on_its_size(self):
        spec = make_spec(n_grid=(100,))
        full = _chunk_types(spec, 100, 0, simulate._CHUNK)
        for part, whole in zip(_chunk_types(spec, 100, 0, 300), full):
            np.testing.assert_array_equal(part, whole[..., :300])

    def test_chunk_streams_disjoint(self, monkeypatch):
        built = []
        real = simulate.sequence_generator

        def recording(*args):
            g = real(*args)
            state = g.bit_generator.state["state"]
            built.append((tuple(state["key"].tolist()), tuple(state["counter"].tolist())))
            return g

        monkeypatch.setattr(simulate, "sequence_generator", recording)
        spec = make_spec(n_grid=(100,))
        for chunk in range(4):
            _chunk_types(spec, 100, chunk, 10)
        chunk_streams, built[:] = set(built), []
        # drawing advances counter word 0 alone: streams that start at word 0
        # and differ in the key or words 1-3 never meet
        assert len({(key, counter[1:]) for key, counter in chunk_streams}) == 4 * 5
        assert all(counter[0] == 0 for _, counter in chunk_streams)
        # draw_databases reads the chunk streams and no others
        for trial in (0, 3 * simulate._CHUNK + 1):
            draw_databases(spec, 100, trial)
        assert set(built) <= chunk_streams
        built[:] = []
        # the layout version is part of the key
        monkeypatch.setattr(simulate, "LAYOUT_VERSION", simulate.LAYOUT_VERSION + 1)
        _chunk_types(spec, 100, 0, 10)
        assert not {key for key, _ in built} & {key for key, _ in chunk_streams}

    def test_large_seeds_keep_their_low_bits(self):
        a = _chunk_types(make_spec(seed=2**60), 100, 0, 50)
        b = _chunk_types(make_spec(seed=2**60 + 1), 100, 0, 50)
        assert not np.array_equal(a[0], b[0])


@pytest.fixture
def inline_pools(monkeypatch):
    """Pools built by estimate_errors, each a stand-in for ProcessPoolExecutor
    that runs a job when it is submitted and records its size and its jobs;
    a real pool would start every requested worker process. The module pool
    is cleared first, so the next call builds one."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers, self.jobs = max_workers, []
            pools.append(self)

        def submit(self, fn, spec, *job):
            self.jobs.append(job)
            future = Future()
            future.set_result(fn(spec, *job))
            return future

        def shutdown(self):
            pass

    with simulate._pool_lock:
        simulate._drop_pool()
    monkeypatch.setattr("seqmatch.simulate.ProcessPoolExecutor", InlinePool)
    return pools


class TestEstimateErrors:
    def test_bit_identical_reruns(self):
        spec = make_spec(trials=400)
        assert estimate_errors(spec) == estimate_errors(spec)

    def test_thread_count_invariance(self, monkeypatch):
        # small chunks make six (n, chunk) jobs, run by the caller and real
        # pools of one and two helpers
        spec = make_spec(trials=150, n_grid=(60, 90))
        monkeypatch.setattr("seqmatch.simulate._CHUNK", 64)
        monkeypatch.setattr("seqmatch.simulate.os.cpu_count", lambda: 3)
        one = repr(estimate_errors(spec, threads=1).rows)
        for threads in (2, 3):
            assert repr(estimate_errors(spec, threads=threads).rows) == one

    def test_threads_below_one_rejected(self):
        with pytest.raises(InputError):
            estimate_errors(make_spec(trials=10), threads=0)

    @pytest.mark.parametrize(
        "threads,cpus,want", [(1000, 8, 3), (1000, 2, 2), (2, 8, 2), (1, 8, None), (5, None, None)]
    )
    def test_pool_size_clamped(self, monkeypatch, inline_pools, threads, cpus, want):
        # `want` processes in all: the caller and a pool of want - 1
        spec = make_spec(trials=30, n_grid=(60,))
        serial = estimate_errors(spec)
        monkeypatch.setattr("seqmatch.simulate._CHUNK", 10)
        monkeypatch.setattr("seqmatch.simulate.os.cpu_count", lambda: cpus)
        assert estimate_errors(spec, threads=threads) == serial
        assert [p.max_workers for p in inline_pools] == ([] if want is None else [want - 1])

    def test_caller_runs_every_workers_th_job(self, monkeypatch, inline_pools):
        runs = []
        real = simulate._classify_chunk

        def recording(spec, *job):
            runs.append(job)
            return real(spec, *job)

        spec = make_spec(trials=30, n_grid=(60, 90))
        monkeypatch.setattr("seqmatch.simulate._CHUNK", 10)
        monkeypatch.setattr("seqmatch.simulate.os.cpu_count", lambda: 8)
        monkeypatch.setattr("seqmatch.simulate._classify_chunk", recording)
        jobs = [(n, c, 10) for n in (60, 90) for c in range(3)]
        records = {}
        for threads in (1, 2, 3):
            inline_pools[:], runs[:] = [], []
            records[threads] = repr(estimate_errors(spec, threads=threads).rows)
            assert sorted(runs) == sorted(jobs)
            pooled = [job for pool in inline_pools for job in pool.jobs]
            assert [job for job in runs if job not in pooled] == jobs[::threads]
            if threads == 1:
                assert inline_pools == []
            else:
                assert [p.max_workers for p in inline_pools] == [threads - 1]
                assert pooled == [job for i, job in enumerate(jobs) if i % threads]
        assert records[1] == records[2] == records[3]

    def test_huge_threshold_always_rejects(self):
        spec = make_spec(tc=GlrtConfig(lam=50.0, k=1), trials=100)
        res = estimate_errors(spec)
        assert res.row(100, "false_reject").count == 100
        # no row for an n off the grid or an event the test does not report
        for n, event in ((101, "false_reject"), (100, "false_alarm")):
            with pytest.raises(KeyError):
                res.row(n, event)

    def test_zero_count_convention(self):
        spec = make_spec(tc=GlrtConfig(lam=50.0, k=1), trials=100)
        row = estimate_errors(spec).row(100, "mismatch")
        assert row.count == 0
        assert row.p_hat == 0.0
        assert row.zero_count
        assert row.exponent == pytest.approx(-math.log(3 / 100) / 100)
        assert math.isnan(row.exp_lo)

    def test_mismatch_bound_small_scale(self):
        # well separated generators, small lambda: the mismatch bound holds
        spec = make_spec(trials=2000, n_grid=(150,), tc=GlrtConfig(lam=1e-3, k=1))
        row = estimate_errors(spec).row(150, "mismatch")
        bound = math.exp(-150 * 1e-3)
        assert row.p_hat <= bound + 3 * row.stderr + 1e-12

    def test_exponent_bands(self):
        spec = make_spec(trials=500, n_grid=(80,))
        for row in estimate_errors(spec).rows:
            if 0 < row.count < row.trials:
                assert row.exp_lo <= row.exponent <= row.exp_hi

    def test_events_partition_trials(self):
        spec = make_spec(trials=500, n_grid=(80,))
        res = estimate_errors(spec)
        total = sum(res.row(80, e).count for e in ("correct", "mismatch", "false_reject"))
        assert total == 500


@pytest.fixture
def counted_pools(monkeypatch):
    """Real helper pools built by estimate_errors, in build order; small
    chunks make six (n, chunk) jobs, and three CPUs allow pools of one and
    two helpers."""
    built = []

    class Counted(ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            built.append(self)

    monkeypatch.setattr("seqmatch.simulate.ProcessPoolExecutor", Counted)
    monkeypatch.setattr("seqmatch.simulate._CHUNK", 64)
    monkeypatch.setattr("seqmatch.simulate.os.cpu_count", lambda: 3)
    return built


def _helper_pids() -> list:
    return sorted(p.pid for p in multiprocessing.active_children())


def _running(pid: int) -> bool:
    """The process exists and is not a zombie waiting to be reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestHelperPool:
    """The helpers of estimate_errors outlive a call: they are started once,
    reused at the same count, replaced at another, and dropped when one dies."""

    def test_one_pool_for_repeated_calls_and_a_sweep(self, counted_pools):
        spec = make_spec(trials=150, n_grid=(60, 90))
        serial = estimate_errors(spec)
        assert counted_pools == []
        assert estimate_errors(spec, threads=2) == serial
        helpers = _helper_pids()
        assert estimate_errors(spec, threads=2) == serial
        hard = ((B(0.1), B(0.12), B(0.9)), (B(0.1), B(0.14)))
        worst_case_sweep(spec, [(spec.p_dists, spec.q_dists), hard, hard], threads=2)
        assert len(counted_pools) == 1 and len(helpers) == 1
        assert _helper_pids() == helpers

    def test_size_change_shuts_the_old_pool_down(self, counted_pools):
        spec = make_spec(trials=150, n_grid=(60, 90))
        serial = estimate_errors(spec)
        assert estimate_errors(spec, threads=2) == serial
        old = _helper_pids()
        assert estimate_errors(spec, threads=3) == serial
        new = _helper_pids()
        assert len(counted_pools) == 2 and len(old) == 1 and len(new) == 2
        assert not set(old) & set(new)
        assert not any(_running(pid) for pid in old)
        with pytest.raises(RuntimeError, match="shutdown"):
            counted_pools[0].submit(abs, 1)

    def test_dead_helper_fails_one_call_then_the_pool_is_rebuilt(self, counted_pools):
        spec = make_spec(trials=150, n_grid=(60, 90))
        serial = estimate_errors(spec)
        assert estimate_errors(spec, threads=2) == serial
        (victim,) = _helper_pids()
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):
            estimate_errors(spec, threads=2)
        assert simulate._pool is None
        assert estimate_errors(spec, threads=2) == serial
        assert len(counted_pools) == 2
        assert victim not in _helper_pids()

    def test_concurrent_callers_get_the_serial_records(self, counted_pools):
        spec = make_spec(trials=150, n_grid=(60, 90))
        serial = repr(estimate_errors(spec).rows)
        counts = (2, 3) * 3
        got = [None] * len(counts)
        start = threading.Barrier(len(counts))

        def call(k):
            start.wait(timeout=60)
            got[k] = [repr(estimate_errors(spec, threads=counts[k]).rows) for _ in range(3)]

        callers = [threading.Thread(target=call, args=(k,)) for k in range(len(counts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [[serial] * 3] * len(counts)

    def test_helpers_end_with_the_interpreter(self, tmp_path):
        # a helper left running would also hold the pipes open, so the
        # timeout catches it even before the pid check
        code = (
            "import multiprocessing, os\n"
            "from seqmatch.core import Alphabet, Distribution, MatchHypothesis, ProblemConfig\n"
            "from seqmatch.glrt import TestConfig\n"
            "from seqmatch.simulate import SimulationSpec, estimate_errors\n"
            "B = Distribution.bernoulli\n"
            "spec = SimulationSpec(ProblemConfig(3, 2, Alphabet(2), 2.0, 100),\n"
            "    (B(0.1), B(0.5), B(0.9)), (B(0.1), B(0.7)), MatchHypothesis(((0, 0),)),\n"
            "    'unnikrishnan', TestConfig(lam=1e-3, k=1), 200, 7, (100, 200))\n"
            "os.cpu_count = lambda: 2\n"
            "estimate_errors(spec, threads=2)\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(seqmatch.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=60)
        assert proc.returncode == 0, proc.stderr
        pids = [int(p) for p in proc.stdout.split()]
        assert len(pids) == 1
        assert not any(_running(pid) for pid in pids)


class TestVectorizedMatchesPublicTests:
    """The batch decision cores must agree with the public single-database
    tests on the databases that draw_databases returns for the same trials."""

    @pytest.mark.parametrize(
        "test_name,null",
        [
            pytest.param(t, null, id=t + ("-null" if null else ""))
            for null in (False, True)
            for t in ("unnikrishnan", "simple", "two_phase")
        ],
    )
    def test_agreement(self, test_name, null):
        # at these n the batch counts mix accepts and rejects in every case
        n = 200 if null else {"unnikrishnan": 400, "simple": 200, "two_phase": 400}[test_name]
        tc = {
            "unnikrishnan": GlrtConfig(lam=0.01, k=1),
            "simple": GlrtConfig(lam=0.01),
            "two_phase": GlrtConfig(lambda1=0.05, lambda2=0.01),
        }[test_name]
        if null:
            spec = make_spec(test=test_name, trials=48, n_grid=(n,), tc=tc,
                             q=(B(0.3), B(0.7)), truth=None)
        else:
            spec = make_spec(test=test_name, trials=48, n_grid=(n,), tc=tc)
        from seqmatch.simulate import _classify_chunk

        counts = _classify_chunk(spec, n, 0, 48)
        if null:
            agree = {"correct": 0, "false_alarm": 0}
        else:
            agree = {"correct": 0, "mismatch": 0, "false_reject": 0}
        for t in range(48):
            x_db, y_db = draw_databases(spec, n, t)
            if test_name == "unnikrishnan":
                v = unnikrishnan_test(x_db, y_db, 1, 0.01)
            elif test_name == "simple":
                v = simple_test(x_db, y_db, 0.01)
            else:
                v = two_phase_test(x_db, y_db, 0.05, 0.01)
            if null:
                agree["false_alarm" if v.is_match else "correct"] += 1
            elif not v.is_match:
                agree["false_reject"] += 1
            elif v.matched.pairs == spec.truth.pairs:
                agree["correct"] += 1
            else:
                agree["mismatch"] += 1
        for key, val in agree.items():
            assert counts.get(key, 0) == val
        if not null:
            assert counts["correct"] + counts["mismatch"] >= 1


class TestWorstCase:
    def test_single_member_equals_estimate(self):
        spec = make_spec(trials=300, n_grid=(60,))
        fam = [(spec.p_dists, spec.q_dists)]
        assert worst_case_sweep(spec, fam) == estimate_errors(spec)

    def test_max_semantics(self):
        spec = make_spec(trials=300, n_grid=(60,))
        hard = ((B(0.1), B(0.12), B(0.9)), (B(0.1), B(0.14)))
        fam = [(spec.p_dists, spec.q_dists), hard]
        res = worst_case_sweep(spec, fam)
        single = [estimate_errors(spec), estimate_errors(
            SimulationSpec(spec.config, hard[0], hard[1], spec.truth, spec.test,
                           spec.test_config, spec.trials, spec.seed, spec.n_grid))]
        for event in ("mismatch", "false_reject"):
            want = max(r.row(60, event).count for r in single)
            assert res.row(60, event).count == want


class TestTwoPhaseSimulation:
    def test_k_estimation_and_alarm_decay(self):
        truth = MatchHypothesis(((0, 0),))
        p = (B(0.10), B(0.45), B(0.85))
        q = (B(0.10), B(0.70))
        cfg = ProblemConfig(3, 2, Alphabet(2), 2.0, 1500)
        tc = GlrtConfig(lambda1=0.011, lambda2=1e-3)
        spec = SimulationSpec(cfg, p, q, truth, "two_phase", tc, 400, 3, (1500,))
        res = estimate_errors(spec)
        assert res.row(1500, "k_estimate_correct").p_hat > 0.9
        # null truth: false alarms decay with n
        qn = (B(0.26), B(0.62))
        cfg2 = ProblemConfig(3, 2, Alphabet(2), 2.0, 500)
        spec2 = SimulationSpec(cfg2, p, qn, None, "two_phase",
                               GlrtConfig(lambda1=0.009, lambda2=1e-3), 400, 5, (500, 2000))
        res2 = estimate_errors(spec2)
        assert res2.row(500, "false_alarm").p_hat >= res2.row(2000, "false_alarm").p_hat
