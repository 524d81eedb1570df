"""Tests of the benchmark itself: references, checks, tracing and workload streams.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dirichlet_hardy import bounds, cli, experiments  # noqa: E402
from dirichlet_hardy.arith import sieve_primes  # noqa: E402


@pytest.fixture(scope="module")
def table():
    return sieve_primes(20_000)


# -- independent references agree with the program --------------------------


@pytest.mark.parametrize("N,k,alpha", [(60, 2, 1.5), (25, 3, 1.0), (40, 2, 1.0)])
def test_dense_pseudomoment_matches_program(table, N, k, alpha):
    program = experiments.pseudomoment(N, k, alpha, "exact", table).value
    assert checks.relative_error(program, checks.psi_dense(N, k, alpha)) <= checks.EXACT_RTOL


@pytest.mark.parametrize("N", [1, 2, 7, 30, 1000, 20_000])
def test_pair_sum_matches_pair_correlation_route(N):
    program = experiments.pseudomoment(N, 2, 1.0, "exact").value
    assert checks.relative_error(program, checks.psi_pairs(N)) <= checks.EXACT_RTOL


def test_pair_sum_matches_brute_force():
    N = 30
    assert checks.psi_pairs(N) == pytest.approx(checks.psi_dense(N, 2, 1.0), rel=1e-13)


def test_l2_pseudomoment_matches_program(table):
    program = experiments.pseudomoment(3000, 1, 1.5, "exact", table).value
    assert checks.relative_error(program, checks.psi_l2(3000, 1.5)) <= checks.EXACT_RTOL


def test_divisor_values_count_divisors():
    d = checks.divisor_values(100, 2.0)
    assert [int(d[n]) for n in (1, 2, 12, 36, 64, 97)] == [1, 2, 6, 9, 7, 2]


def test_mobius_values():
    mu = checks.mobius_values(30)
    assert [int(mu[n]) for n in (1, 2, 4, 6, 12, 30)] == [1, -1, 0, 1, 0, -1]


@pytest.mark.parametrize("e", range(2, 12))
def test_functional_bound_matches_program(e):
    assert checks.functional_bound(e, 0.5) == pytest.approx(
        bounds.coeff_functional_bound(e, 0.5).value, rel=1e-12)


@pytest.mark.parametrize("X", [16, 500, 5000])
def test_cnp_reference_matches_program(table, X):
    program = experiments.maximal_order_scan(X, 0.5, table).value
    assert checks.relative_error(program, checks.CnpReference(5000, 0.5).value(X)) <= checks.EXACT_RTOL


# -- checks accept correct outputs and reject wrong ones ---------------------


def _run(op, tmp_path, value_scale=None):
    path = tmp_path / "out.json"
    code = cli.main([*op.argv, "--out", str(path)])
    text = path.read_text()
    if value_scale is not None:
        doc = json.loads(text)
        doc["records"][0]["value"] *= value_scale
        text = json.dumps(doc)
    return code, text


@pytest.mark.parametrize("kind,size", [("psi-conv-k2", 200), ("psi-conv-k3", 40),
                                       ("psi-pair", 10_000), ("psi-l2", 2_000), ("cnp", 2_000)])
def test_exact_checks(tmp_path, kind, size):
    op = workloads.exact_op(kind, size, "1")
    checker = checks.Checker("exact_moments", [op])
    assert checker.check(op, *_run(op, tmp_path)) is None
    assert checker.check(op, *_run(op, tmp_path, 1 + 1e-9)) is not None


def test_mc_checks(tmp_path):
    op = workloads.norm_op("zeta-power", 150, 3.0, "5")
    checker = checks.Checker("mc_dense", [op])
    assert checker.check(op, *_run(op, tmp_path)) is None
    # far below the exact l2 norm, which bounds the 3-norm from below
    assert checker.check(op, *_run(op, tmp_path, 0.5)) is not None
    assert checker.check(op, 2, None) == "exit code 2"


def test_fuzz_checks(tmp_path):
    op = workloads.fuzz_op(1, "3")
    checker = checks.Checker("fuzz_sparse", [op])
    code, text = _run(op, tmp_path)
    assert checker.check(op, code, text) is None
    doc = json.loads(text)
    doc["records"].pop(0)
    assert "records" in checker.check(op, code, json.dumps(doc))


# -- tracing ------------------------------------------------------------------


def test_self_and_stage_times():
    names = ["cli.main", "dseries.generate", "dseries.zeta_partial", "arith.factorize"]
    # main [0, 10] > generate [1, 6] > zeta_partial [2, 5] > factorize [3, 4]
    spans = {
        "fn": np.array([0, 1, 2, 3]),
        "parent": np.array([-1, 0, 1, 2]),
        "op": np.zeros(4, dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0, 3.0]),
        "end": np.array([10.0, 6.0, 5.0, 4.0]),
    }
    assert tracing.self_times(spans["parent"], spans["end"] - spans["start"]).tolist() == [5, 2, 2, 1]
    counts = dict.fromkeys(tracing.COUNTS, 0)
    out = tracing.layer_metrics(names, spans, counts)
    assert out["dseries.generator_s"] == 5.0  # the outermost generator span only
    assert out["dseries.self_s"] == 0.0  # both dseries spans belong to a stage
    assert out["cli.self_s"] == 5.0 and out["arith.self_s"] == 1.0
    assert out["arith.factorize_calls"] == 1 and out["cli.calls"] == 1


def _traced_counts(workload, count, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(workloads.first_ops(workload, 7, count)):
            tracer.current_op = i
            assert cli.main([*op.argv, "--out", str(tmp_path / f"{i}.json")]) == 0
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def test_traced_metrics_are_the_benchmark_per_layer_metrics():
    empty = {key: np.zeros(0, dtype=np.int32) for key in ("fn", "parent", "op")}
    empty.update(start=np.zeros(0), end=np.zeros(0))
    metrics = tracing.layer_metrics(["arith.factorize"], empty, dict.fromkeys(tracing.COUNTS, 0))
    metrics.update({"trace.overhead_frac": 0.0, "trace.spans": 0})  # added by run.per_layer
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert set(run.metric_units()) >= set(metrics)


@pytest.mark.parametrize("workload,count", [("mc_dense", 2), ("fuzz_sparse", 2), ("exact_moments", 5)])
def test_exact_counts_repeat(tmp_path, workload, count):
    first = _traced_counts(workload, count, tmp_path)
    second = _traced_counts(workload, count, tmp_path)
    # the documents echo wall_time_s, whose printed length varies by a few bytes
    assert abs(first.pop("report.bytes_out") - second.pop("report.bytes_out")) < 100
    assert first == second
    assert first["cli.calls"] > 0 and first["arith.factorize_calls"] > 0
    if workload != "exact_moments":
        assert first["dseries.conv_pairs"] == 0
    if workload == "mc_dense":
        assert first["norms.rng_useful_frac"] == 1.0
        assert first["norms.phase_evals"] > 0


def test_remove_restores_every_binding():
    import dirichlet_hardy
    from dirichlet_hardy import arith, norms

    before = (arith.factorize, norms.factorize, dirichlet_hardy.factorize, cli.main, cli.render)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert norms.factorize is not before[1] and norms.factorize is arith.factorize
    finally:
        tracer.remove()
    after = (arith.factorize, norms.factorize, dirichlet_hardy.factorize, cli.main, cli.render)
    assert all(a is b for a, b in zip(before, after))


def test_support_prime_count(table):
    from dirichlet_hardy.dseries import DirichletPolynomial

    f = DirichletPolynomial({1: 1.0, 12: 1.0, 35: 2.0, 97: 1.0})
    assert tracing.support_prime_count(f, table) == 5  # 2, 3, 5, 7, 97


# -- workloads and the run script ---------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_repeat_for_a_seed(workload):
    a = workloads.first_ops(workload, 11, 30)
    assert [op.argv for op in a] == [op.argv for op in workloads.first_ops(workload, 11, 30)]
    assert [op.argv for op in a] != [op.argv for op in workloads.first_ops(workload, 12, 30)]


def test_mc_block_covers_every_shape_and_stratum():
    block = workloads.first_ops("mc_dense", 3, 12)
    shapes = {(op.params["generator"], op.params["p"]) for op in block}
    assert len(shapes) == 12
    lo, hi = workloads.MC_N
    strata = sorted(int((op.params["N"] - lo) * 12 / (hi - lo + 1)) for op in block)
    assert strata == list(range(12))


def test_tail_percentile():
    latencies = [float(i) for i in range(1, 51)]
    value, pct, beyond = run.tail(latencies)
    assert (value, pct, beyond) == (40.0, 80, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)
    for n in range(11, 200):
        value, pct, beyond = run.tail([float(i) for i in range(n)])
        # distinct latencies 0..n-1: exactly `beyond` of them lie above `value`
        assert beyond >= 10 and value == n - 1 - beyond


def test_run_without_package_source_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "missing")
    assert run.main(["--workload", "mc_dense", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
