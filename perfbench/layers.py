"""Which seqmatch functions the traced pass wraps, and the per-layer metrics
derived from their spans.

Each function is wrapped where its callers look it up: the names imported
into `seqmatch.simulate`, `seqmatch.glrt`, `seqmatch.cli`, `seqmatch.exponents`
and `seqmatch.smalldev`, plus `Database.from_rows`. A name that a later
version removes is skipped and listed as missing; its metrics then read 0.
"""

from __future__ import annotations

from spans import Tracer, self_times, union_length

GLRT_DECIDE = ("glrt.batch_scores", "glrt.batch_known_k", "glrt.batch_simple", "glrt.batch_two_phase")
KERNEL = "divergences.kernel"

# name -> (unit, better); every name is reported on every workload, and
# reads 0 where the workload does not exercise the layer
PER_LAYER = {
    "simulate.draw_s": ("s/op", "lower"),
    "simulate.generators_built": ("count/op", "lower"),
    "simulate.parallel_speedup": ("ratio", "higher"),
    "divergences.gjs_table_s": ("s/op", "lower"),
    "divergences.gjs_table_calls": ("count/op", "lower"),
    "glrt.decide_s": ("s/op", "lower"),
    "glrt.scores_computed": ("count/op", "lower"),
    "glrt.space_index_s": ("s/op", "lower"),
    "hypotheses.enumerate_s": ("s/op", "lower"),
    "hypotheses.enumerate_calls": ("count/op", "lower"),
    "hypotheses.enumerated": ("count/op", "lower"),
    "cli.self_s": ("s/op", "lower"),
    "core.database_s": ("s/op", "lower"),
    "exponents.slsqp_s": ("s/op", "lower"),
    "exponents.slsqp_calls": ("count/op", "lower"),
    "exponents.slsqp_iterations": ("count/op", "lower"),
    "exponents.self_s": ("s/op", "lower"),
    "divergences.kernel_calls": ("count/op", "lower"),
    "exponents.unconverged": ("count/op", "lower"),
    "smalldev.quantile_s": ("s/op", "lower"),
    "smalldev.mvn_calls": ("count/op", "lower"),
    "smalldev.mvn_s": ("s/op", "lower"),
    "smalldev.ties_cov_s": ("s/op", "lower"),
    "smalldev.psd_projected": ("count/op", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _size(result) -> int:
    return int(getattr(result, "size", 0))


def _count(result) -> int:
    return len(result)


def _nit(result) -> int:
    return int(result.get("nit", 0))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer as their callers see them."""
    import seqmatch.cli as cli
    import seqmatch.exponents as exponents
    import seqmatch.glrt as glrt
    import seqmatch.simulate as simulate
    import seqmatch.smalldev as smalldev
    from seqmatch.core import Database

    enumerated = (("hypotheses.enumerated", _count),)
    scores = (("glrt.scores_computed", _size),)

    # cli and core
    tracer.span(cli, "run", "cli.run")
    for name in ("two_phase_test", "unnikrishnan_test", "simple_test"):
        tracer.span(cli, name, "glrt.test")
    tracer.span(Database, "from_rows", "core.database")

    # simulate, and the layers it calls
    tracer.span(simulate, "estimate_errors", "simulate.estimate_errors")
    tracer.count(simulate, "sequence_generator", "simulate.generators_built")
    for mod in (simulate, glrt):
        tracer.span(mod, "gjs_table", "divergences.gjs_table")
        tracer.span(mod, "enumerate_space", "hypotheses.enumerate_space", enumerated)
        tracer.span(mod, "space_index", "glrt.space_index")
        tracer.span(mod, "batch_scores", "glrt.batch_scores", scores)
        tracer.span(mod, "batch_known_k", "glrt.batch_known_k")
        tracer.span(mod, "batch_simple", "glrt.batch_simple")
        tracer.span(mod, "batch_two_phase", "glrt.batch_two_phase")

    # exponents
    tracer.span(exponents, "false_reject_exponent", "exponents.false_reject_exponent")
    tracer.span(exponents, "minimize", "exponents.slsqp", (("exponents.slsqp_nit", _nit),))
    for name in ("kl_arr", "gjs_arr", "i1_arr", "i2_arr"):
        tracer.span(exponents, name, KERNEL)

    # smalldev
    tracer.span(smalldev, "analyze", "smalldev.analyze")
    tracer.span(smalldev, "tie_set", "smalldev.tie_set")
    tracer.span(smalldev, "covariance_matrix", "smalldev.covariance_matrix")
    tracer.span(smalldev, "gaussian_reject_quantile", "smalldev.quantile")
    tracer.span(smalldev, "mvn_cdf", "smalldev.mvn_cdf")


def derive(tracer: Tracer, ops: int, quality: dict) -> dict:
    """Per-op layer metrics of one traced pass of `ops` ops. `quality` holds
    the workload's own per-pass counts (unconverged points, PSD projections)."""
    spans = tracer.spans
    selft = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def dur(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_of(name):
        return sum(selft[i] for i in by_name.get(name, ()))

    # outermost decision spans only: batch_two_phase calls batch_scores
    decide = [
        i for name in GLRT_DECIDE for i in by_name.get(name, ())
        if spans[i][3] < 0 or spans[spans[i][3]][0] not in GLRT_DECIDE
    ]
    decide_s = sum(spans[i][2] - spans[i][1] for i in decide)

    cli_self = 0.0
    children: dict[int, list] = {}
    for i in by_name.get("glrt.test", ()):
        children.setdefault(spans[i][3], []).append((spans[i][1], spans[i][2]))
    for i in by_name.get("cli.run", ()):
        s = spans[i]
        cli_self += (s[2] - s[1]) - union_length(children.get(i, ()), s[1], s[2])

    c = tracer.counters
    totals = {
        "simulate.draw_s": self_of("simulate.estimate_errors"),
        "simulate.generators_built": c.get("simulate.generators_built", 0),
        "divergences.gjs_table_s": dur("divergences.gjs_table"),
        "divergences.gjs_table_calls": calls("divergences.gjs_table"),
        "glrt.decide_s": decide_s,
        "glrt.scores_computed": c.get("glrt.scores_computed", 0),
        "glrt.space_index_s": dur("glrt.space_index"),
        "hypotheses.enumerate_s": dur("hypotheses.enumerate_space"),
        "hypotheses.enumerate_calls": calls("hypotheses.enumerate_space"),
        "hypotheses.enumerated": c.get("hypotheses.enumerated", 0),
        "cli.self_s": cli_self,
        "core.database_s": dur("core.database"),
        "exponents.slsqp_s": dur("exponents.slsqp"),
        "exponents.slsqp_calls": calls("exponents.slsqp"),
        "exponents.slsqp_iterations": quality.get("iterations", 0),
        "exponents.self_s": self_of("exponents.false_reject_exponent"),
        "divergences.kernel_calls": calls(KERNEL),
        "exponents.unconverged": quality.get("unconverged", 0),
        "smalldev.quantile_s": dur("smalldev.quantile"),
        "smalldev.mvn_calls": calls("smalldev.mvn_cdf"),
        "smalldev.mvn_s": dur("smalldev.mvn_cdf"),
        "smalldev.ties_cov_s": dur("smalldev.tie_set") + dur("smalldev.covariance_matrix"),
        "smalldev.psd_projected": quality.get("psd_projected", 0),
    }
    return {k: v / ops for k, v in totals.items()}
