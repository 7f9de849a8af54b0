"""The benchmark wraps functions by name and reads exact scalars; a change
in ``src/`` that breaks either would show only in a benchmark run, so both
are checked here."""

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from chernforms import EXACT, chern, cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = load_bench("tracing")
    assert tracing.TRACED
    for module_name, attr in tracing.TRACED:
        target = importlib.import_module(f"chernforms.{module_name}")
        for name in attr.split("."):
            assert hasattr(target, name), f"chernforms.{module_name}.{attr}"
            target = getattr(target, name)
        assert callable(target), f"chernforms.{module_name}.{attr}"
        assert module_name in tracing.LAYERS


def run_op(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, out.getvalue()


def test_exact_build_op_passes_its_oracle(tmp_path):
    # the pool reads Gaussian integers off exact factor entries, and the
    # oracle compares the exact top table against a float build
    workloads = load_bench("workloads")
    pool = workloads.exact_build(501, str(tmp_path), run_op)
    assert len(pool) == workloads.EXACT_POOL
    op = pool[0]
    assert op.argv[:4] == ("curvature", "build", "--mode", "exact")
    assert op.check(*run_op(op.argv)) is None


def test_every_exact_build_op_takes_the_int64_route(tmp_path):
    # the pool's omega parts are sums of three products of Gaussian integers
    # in [-2, 2]^2, at most 24, far below the bound at (n, r) = (4, 3)
    workloads = load_bench("workloads")
    for seed in (501, 271, 272):
        for op in workloads.exact_build(seed, str(tmp_path), run_op):
            with open(op.argv[-1], encoding="utf-8") as fh:
                omega, _ = cli._curvature_from_input(json.load(fh), EXACT)
            entries = [[None if b.is_zero() else b for b in row] for row in omega.blocks]
            assert chern._fits_int64(entries, omega.r, min(omega.n, omega.r))


def test_rank_heavy_op_passes_its_oracle(tmp_path):
    # the oracle demands PASS with every check at 50 trials on a witnessed
    # (4, 5) instance
    workloads = load_bench("workloads")
    pool = workloads.rank_heavy(401, str(tmp_path), run_op)
    assert len(pool) == workloads.RANK_POOL
    op = pool[0]
    assert op.argv[:5] == ("schur", "verify", "--random", "--n", "4")
    assert op.check(*run_op(op.argv)) is None


def test_model_rr_pool_passes_its_oracles(tmp_path):
    # the pool passes --seed to model rr and model bounds, which accept it
    workloads = load_bench("workloads")
    pool = workloads.model_rr(601, str(tmp_path), run_op)
    assert len(pool) == 3 * len(workloads.models.CATALOG)
    assert all("--seed" in op.argv for op in pool)
    for op in pool:
        assert op.check(*run_op(op.argv)) is None, op.argv


def test_dim_heavy_chain_op_passes_its_oracle(tmp_path):
    # the first bounds chain op of the pool; CLI seed 13, the documented
    # false FAIL, is not the first at this benchmark seed
    workloads = load_bench("workloads")
    pool = workloads.dim_heavy(301, str(tmp_path), run_op)
    assert len(pool) == 2 * workloads.DIM_INSTANCES
    op = next(op for op in pool if op.argv[:2] == ("bounds", "chain"))
    assert op.check(*run_op(op.argv)) is None, op.argv


def test_sampled_pools_pass_their_oracles(tmp_path):
    # every op of the rank-heavy (6) and dim-heavy (32) pools at one
    # benchmark seed; dim-heavy holds CLI seed 13 at (5, 3), whose
    # S_(1,1,1,1,1) (five parts, m = 4 factor columns) was the sampled false
    # FAIL until Schur forms with more parts than columns were reported as
    # the zero form they are
    workloads = load_bench("workloads")
    pool = (workloads.rank_heavy(401, str(tmp_path), run_op)
            + workloads.dim_heavy(301, str(tmp_path), run_op))
    assert len(pool) == workloads.RANK_POOL + 2 * workloads.DIM_INSTANCES
    failures = [(op.argv, op.check(*run_op(op.argv))) for op in pool]
    assert [(argv, bad) for argv, bad in failures if bad is not None] == []


def test_counters_read_the_forms_of_sampled_ops(tmp_path):
    # COUNTERS read the terms of chern_forms(...).forms and of
    # nonnegative_sampled's first argument; one op of each sampled pool must
    # count some, and print under the tracer what it prints without it
    tracing = load_bench("tracing")
    workloads = load_bench("workloads")
    for pool in (workloads.rank_heavy(401, str(tmp_path), run_op),
                 workloads.dim_heavy(301, str(tmp_path), run_op)):
        argv = pool[0].argv
        plain = run_op(argv)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_op(argv)
        finally:
            tracer.uninstall()
        assert traced == plain, argv
        assert tracer.counts["chern.terms"] > 0 and tracer.counts["schur.form_terms"] > 0, argv
