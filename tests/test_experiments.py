import math
from collections import Counter

import numpy as np
import pytest
from oracle import d_alpha

from dirichlet_hardy import arith, experiments, norms
from dirichlet_hardy.arith import sieve_primes
from dirichlet_hardy.bounds import HL_INEQUALITIES, hl_report
from dirichlet_hardy.dseries import (
    GeneratorSpec,
    dirichlet_power,
    euler_factor_power,
    zeta_partial,
    zeta_power_partial,
)
from dirichlet_hardy.errors import ResourceLimitError, SieveLimitError
from dirichlet_hardy.experiments import (
    FuzzConfig,
    hardy_norm,
    hl_fuzz_suite,
    homogeneous_energy,
    maximal_order_scan,
    omega_concentration,
    partial_sum_ratio_probe,
    partial_sum_witness,
    pseudomoment,
    pseudomoment_constants,
    pseudomoment_scan,
    pseudomoment_window_check,
    random_dirichlet,
    random_disc,
)
from dirichlet_hardy.norms import even_norm_exact, l2_norm, mc_norm


class TestPseudomoment:
    def test_harmonic_oracle(self):
        rec = pseudomoment(10, 1, 1.0, "exact")
        assert rec.value == pytest.approx(7381 / 2520, rel=1e-15)
        # d_1 is exactly 1.0, so the l2 route sums 1/n in the same fsum
        assert rec.value == math.fsum(1.0 / n for n in range(1, 11))
        assert rec.extra["algorithm"] == "l2"

    def test_trivial_truncation(self):
        # N = 1 takes each route's own path: every route gives Psi = 1 with normalizer 0
        rec = pseudomoment(1, 3, 1.0, "exact")
        assert rec.value == 1.0
        assert (rec.normalizer, rec.extra["algorithm"]) == (0.0, "convolution") and math.isnan(rec.ratio)
        recs = [pseudomoment(1, k, alpha, "exact") for k, alpha in ((1, 1.0), (2, 1.0), (2, 1.5))]
        assert [r.extra["algorithm"] for r in recs] == ["l2", "pair-correlation", "convolution"]
        assert [r.value for r in recs] == [1.0, 1.0, 1.0]

    def test_fourth_moment_small(self):
        assert pseudomoment(2, 2, 1.0, "exact").value == 3.25

    @pytest.mark.parametrize("N", [2, 3, 10, 57, 200])
    def test_identity_matches_convolution(self, N):
        ident = pseudomoment(N, 2, 1.0, "exact").value
        conv = even_norm_exact(zeta_partial(N), 2).power_mean
        assert ident == pytest.approx(conv, rel=1e-12)

    def test_weighted_exact_matches_convolution(self, table_2k):
        rec = pseudomoment(40, 2, 2.0, "exact", table_2k)
        from dirichlet_hardy.dseries import zeta_power_partial

        conv = even_norm_exact(zeta_power_partial(40, 2.0, table_2k), 2).power_mean
        assert rec.value == pytest.approx(conv, rel=1e-12)
        assert rec.extra["algorithm"] == "convolution"

    def test_k1_weighted(self, table_2k):
        rec = pseudomoment(50, 1, 1.5, "exact", table_2k)
        direct = math.fsum(d_alpha(n, 1.5) ** 2 / n for n in range(1, 51))
        assert rec.value == pytest.approx(direct, rel=1e-14)

    def test_mc_agrees_with_exact(self, table_2k):
        exact = pseudomoment(120, 2, 1.0, "exact").value
        rec = pseudomoment(120, 2, 1.0, "mc", table_2k, samples=60_000, seed=17)
        assert abs(rec.value - exact) <= 3 * rec.std_error

    def test_monotone_in_truncation(self):
        values = [pseudomoment(N, 2, 1.0, "exact").value for N in (2, 5, 10, 50, 51)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_fractional_k_exact(self):
        with pytest.raises(ValueError):
            pseudomoment(10, 1.5, 1.0, "exact")

    @pytest.mark.parametrize("k, alpha, method", [
        (math.nan, 1.0, "mc"), (math.inf, 1.0, "exact"), (2, math.inf, "exact"), (2, math.nan, "mc"),
    ])
    def test_rejects_non_finite_k_and_alpha(self, k, alpha, method):
        with pytest.raises(ValueError, match="finite"):
            pseudomoment(10, k, alpha, method, samples=100, seed=1)

    def test_rejects_missing_mc_params(self, table_2k):
        with pytest.raises(ValueError):
            pseudomoment(10, 1.5, 1.0, "mc", table_2k)

    def test_factoring_routes_sieve_their_own_table(self, table_2k):
        exact = pseudomoment(40, 2, 1.5, "exact")
        assert exact.value == pseudomoment(40, 2, 1.5, "exact", table_2k).value
        mc = pseudomoment(60, 1.5, 1.0, "mc", samples=2000, seed=1)
        assert mc.value == pseudomoment(60, 1.5, 1.0, "mc", table_2k, samples=2000, seed=1).value

    def test_given_table_must_cover_N(self, table_2k):
        with pytest.raises(SieveLimitError):
            pseudomoment(3000, 1, 1.5, "exact", table_2k)
        # every route reads the table, the unweighted exact ones included
        for k in (1, 2, 3):
            with pytest.raises(SieveLimitError, match="N=3000"):
                pseudomoment(3000, k, 1.0, "exact", table_2k)

    def test_normalizer(self):
        rec = pseudomoment(100, 2, 1.0, "exact")
        assert rec.normalizer == pytest.approx(math.log(100) ** 4)
        assert rec.ratio == pytest.approx(rec.value / rec.normalizer)

    def test_normalizer_overflows_to_inf(self):
        # (log 10)^(40^2) passes the float range; the ratio is then value / inf
        rec = pseudomoment(10, 40, 1.0, "mc", samples=100, seed=1)
        assert math.isfinite(rec.value) and rec.value > 0
        assert rec.normalizer == math.inf
        assert rec.ratio == 0.0
        assert pseudomoment(10, 2, 1.0, "exact").normalizer == math.log(10) ** 4


class TestScan:
    def test_k1_slope(self):
        slope = pseudomoment_scan(1, 1.0, [100, 1000, 10_000, 100_000], "exact")[-1].value
        assert 0.9 <= slope <= 1.1

    def test_k2_slope_window(self):
        *recs, slope = pseudomoment_scan(2, 1.0, [100, 316, 1000, 3162], "exact")
        assert 2.5 <= slope.value <= 5.0
        assert len(recs) == 4

    def test_slope_record_closes_the_scan(self):
        # the slope is the least-squares fit of log Psi against log log N, echoing the grid
        *recs, slope = pseudomoment_scan(1.5, 2.0, [10, 20, 40, 80], "mc", samples=2000, seed=2)
        assert [r.params["seed"] for r in recs] == [2, 2, 2, 2]
        x = np.log(np.log([10, 20, 40, 80]))
        fit = np.polyfit(x, np.log([r.value for r in recs]), 1)[0]
        assert slope.experiment == "scan-slope" and slope.value == float(fit)
        assert slope.params == {"k": 1.5, "alpha": 2.0, "method": "mc", "grid": "10,20,40,80", "seed": 2}
        assert slope.normalizer == 9.0 and slope.ratio == slope.value / 9.0

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_mc_points_are_single_point_runs(self, alpha, workers, table_2k):
        # one pass over the largest truncation gives each point the bits of its own run
        grid = [10, 30, 100, 300]
        *recs, _ = pseudomoment_scan(1.5, alpha, grid, "mc", table_2k, samples=1000, seed=7, workers=workers)
        for N, rec in zip(grid, recs):
            alone = pseudomoment(N, 1.5, alpha, "mc", table_2k, samples=1000, seed=7)
            assert (rec.value.hex(), rec.std_error.hex()) == (alone.value.hex(), alone.std_error.hex())
            assert rec == alone

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            pseudomoment_scan(1, 1.0, [10, 100], "exact")
        with pytest.raises(ValueError):
            pseudomoment_scan(1, 1.0, [10, 100, 100, 1000], "exact")


class TestWindowCheck:
    def test_k1_small(self):
        rec = pseudomoment_window_check(1, 10, prime_limit=10_000)
        assert rec.ratio == pytest.approx(7381 / 2520 / math.log(10), rel=1e-12)
        assert rec.extra["upper_constant"] == 1.0
        assert not rec.extra["flagged"]

    def test_k2(self, table_2k, monkeypatch):
        # the table covers N but not prime_limit: both Euler products read one sieve of 10000
        sieves = []
        sieve = arith.sieve_primes
        for module in (arith, experiments):
            monkeypatch.setattr(module, "sieve_primes", lambda limit: sieves.append(limit) or sieve(limit))
        rec = pseudomoment_window_check(2, 1000, table_2k, prime_limit=10_000)
        assert sieves == [10_000]
        assert not rec.extra["flagged"]
        assert rec.extra["lower_constant"] < rec.extra["upper_constant"]
        assert rec == pseudomoment_window_check(2, 1000, sieve(10_000), prime_limit=10_000)

    def test_one_sieve_covers_N_and_the_constants(self, table_100k, monkeypatch):
        # given no table, the pseudomoment and both Euler products read one sieve
        sieves = []
        sieve = arith.sieve_primes
        for module in (arith, experiments):
            monkeypatch.setattr(module, "sieve_primes", lambda limit: sieves.append(limit) or sieve(limit))
        rec = pseudomoment_window_check(2, 1000)
        assert sieves == [100_000]
        assert rec == pseudomoment_window_check(2, 1000, table_100k)

    def test_large_k_verdict_from_logs(self):
        # the normalizer and both constants pass the float range, so their values
        # (inf, 0, 0) say nothing; in logs the ratio, about e^-703, lies far above
        # the upper constant e^-894
        rec = pseudomoment_window_check(20.5, 1000, samples=2000, seed=1)
        assert rec.normalizer == math.inf
        assert rec.extra["upper_constant"] == 0.0 and rec.extra["lower_constant"] == 0.0
        assert rec.extra["upper_log"] < -800
        assert rec.extra["flagged"]


class TestPartialSumWitness:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bound_holds(self, k, table_2k):
        rec = partial_sum_witness(0.5, k, 50_000, 42, table_2k)
        assert rec.extra["a_M_error"] <= 1e-10
        assert rec.extra["bound_ok"]
        assert rec.value >= rec.normalizer - 3 * rec.std_error

    def test_example_values(self, table_2k):
        rec = partial_sum_witness(0.5, 1, 50_000, 11, table_2k)
        assert rec.params["N"] == 2
        assert rec.extra["a_M"] == pytest.approx(1.29904, abs=1e-5)
        assert rec.normalizer == pytest.approx(1.29904**0.5 / 2, abs=1e-4)

    def test_primorial_too_large(self, table_2k):
        # 2*3*5*7*11*13 = 30030 > 2000: the given table cannot cover the primorial
        with pytest.raises(SieveLimitError, match="primorial of the first 6 primes"):
            partial_sum_witness(0.5, 6, 100, 1, table_2k)

    def test_rejects_p_out_of_range(self, table_2k):
        with pytest.raises(ValueError):
            partial_sum_witness(1.5, 1, 100, 1, table_2k)

    def test_sieves_the_primorial_itself(self, table_2k):
        # given no table, the record is the one computed on a table that covers M
        assert partial_sum_witness(0.5, 4, 2_000, 5) == partial_sum_witness(0.5, 4, 2_000, 5, table_2k)

    @pytest.mark.parametrize("k,cap", [(3000, None), (6, 20_000)])
    def test_primorial_beyond_any_sieve(self, k, cap, monkeypatch):
        # 2*3*5*7*11*13 = 30030 needs a 120 kB sieve; the first 3000 primes multiply past any cap
        if cap is not None:
            monkeypatch.setenv("DIRICHLET_HARDY_MEMORY_CAP", str(cap))
        with pytest.raises(ResourceLimitError, match="primorial of the first"):
            partial_sum_witness(0.5, k, 100, 1)


class TestRatioProbe:
    def test_full_truncation_is_unity(self, table_2k):
        f = zeta_partial(20)
        rec = partial_sum_ratio_probe(f, 20, 2.0, 20_000, 5, table_2k)
        assert rec.ratio == pytest.approx(1.0, rel=1e-12)

    def test_exact_l2_ratio(self, table_2k):
        f = zeta_partial(4)
        rec = partial_sum_ratio_probe(f, 2, 2.0, 100_000, 5, table_2k)
        expect = math.sqrt((1 + 1 / 2) / (1 + 1 / 2 + 1 / 3 + 1 / 4))
        assert abs(rec.ratio - expect) <= 4 * rec.std_error

    def test_euler_power_probe_runs(self, table_2k):
        f = euler_factor_power(7, 1.0, 50, table_2k)
        rec = partial_sum_ratio_probe(f, 10, 1.0, 20_000, 5, table_2k)
        assert 0 < rec.ratio <= 1 + 5 * rec.std_error
        assert rec.extra["ratio_rel_error"] > 0
        # given a spec and no table, the probe generates f on a table it sieves itself
        spec = GeneratorSpec(kind="euler-power", N=50, alpha=1.0, prime_bound=7)
        assert partial_sum_ratio_probe(spec, 10, 1.0, 20_000, 5) == rec


class TestNormRoute:
    @pytest.mark.parametrize("p, method", [(2.0, "exact_l2"), (4.0, "exact_even"), (6.0, "exact_even"),
                                           (1.5, "monte_carlo"), (3.0, "monte_carlo")])
    def test_auto_route(self, p, method):
        rec = hardy_norm(zeta_partial(20), p, samples=2000, seed=3)
        assert rec.experiment == "norm" and rec.params["method"] == method
        assert (rec.std_error is None) == (method != "monte_carlo")

    @pytest.mark.parametrize("p, method", [(3.0, "l2"), (4.0, "l2"), (3.0, "even"), (1.5, "even"),
                                           (2.0, "simpson")])
    def test_route_that_does_not_fit_p(self, p, method):
        with pytest.raises(ValueError):
            hardy_norm(zeta_partial(20), p, method, samples=2000, seed=3)

    def test_explicit_routes_agree(self, table_2k):
        f = zeta_partial(20)
        exact = hardy_norm(f, 4.0, "even").value
        assert exact == even_norm_exact(f, 2).value
        assert hardy_norm(f, 2.0, "l2").value == hardy_norm(f, 2.0, "even").value == l2_norm(f).value
        mc = hardy_norm(f, 4.0, "mc", samples=20_000, seed=5, table=table_2k)
        assert abs(mc.value - exact) <= 4 * mc.std_error

    def test_spec_and_report(self, table_2k):
        spec = GeneratorSpec(kind="zeta-power", N=60, alpha=1.5)
        rec = hardy_norm(spec, 1.5, samples=2000, seed=3, report=True)
        assert (rec.params["generator"], rec.params["N"]) == ("zeta-power", 60)
        assert rec == hardy_norm(spec, 1.5, samples=2000, seed=3, table=table_2k, report=True)
        assert rec.extra["hl_report"].verdict == "consistent"
        assert hardy_norm(zeta_partial(20), 2.0).params["generator"] is None


def test_pseudomoment_constants():
    euler, lead = pseudomoment_constants(2, 5000, leading_factor=True, seed=7)
    upper, lower = arith.pseudomoment_ratio_bounds(2, 5000)
    assert (euler.value, euler.normalizer, euler.ratio) == (upper.value, lower.value, upper.value / lower.value)
    assert euler.params == lead.params == {"k": 2, "prime_limit": 5000, "seed": 7}
    assert lead.value == arith.pseudomoment_leading_factor(2, 5000).value
    with pytest.raises(ValueError):
        pseudomoment_constants(2.5, 5000, leading_factor=True)


class TestMaximalOrder:
    def test_smoke_minimal(self, table_2k):
        rec = maximal_order_scan(16, 0.5, table_2k)
        assert rec.value > 0
        assert maximal_order_scan(16, 0.5) == rec  # sieves its own table

    def test_dominates_primorial_floor(self, table_20k):
        rec = maximal_order_scan(10_000, 0.5, table_20k)
        assert rec.value >= rec.extra["primorial_floor"]
        assert rec.extra["squarefree_log"] == pytest.approx(math.log(1.299038105676658), rel=1e-9)

    def test_monotone_in_p(self, table_20k):
        low = maximal_order_scan(10_000, 0.5, table_20k).value
        high = maximal_order_scan(10_000, 0.9, table_20k).value
        assert high < low

    def test_rejects_small_X(self, table_2k):
        with pytest.raises(ValueError):
            maximal_order_scan(15, 0.5, table_2k)


class TestOmegaConcentration:
    def test_partition_and_window(self, table_20k):
        rec = omega_concentration(10_000, 10.0, table_20k)
        assert rec.extra["total"] == 10_000
        assert rec.value == 0.0  # window covers every class at C = 10
        hist = dict((m, c) for m, c in rec.extra["histogram"])
        assert hist[0] == 1

    def test_small_x_guard(self, table_2k):
        with pytest.raises(ValueError):
            omega_concentration(15, 2.0, table_2k)
        for C in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="C must be positive and finite"):
                omega_concentration(100, C, table_2k)
        rec = omega_concentration(16, 2.0, table_2k)
        assert rec.extra["total"] == 16
        assert omega_concentration(16, 2.0) == rec  # sieves its own table

    def test_mode_at_scale(self, table_1m):
        rec = omega_concentration(10**6, 2.0, table_1m)
        assert rec.extra["mode"] in (2, 3)
        assert rec.extra["total"] == 10**6


class TestHomogeneousEnergy:
    def test_alpha_one_coefficients(self, table_2k):
        recs = homogeneous_energy(100, 1.0, 2.0, 5_000, 1, table_2k)
        # alpha = 1 gives the plain half-shifted block: per-layer l2 masses sum to the block mass
        total = sum(r.value ** 2 for r in recs if r.params["m"] > 0 or r.value)
        block = math.fsum(1 / n for n in range(51, 101))
        # p = 2 Monte Carlo is close to exact l2 for each layer, so compare loosely
        assert total == pytest.approx(block, rel=0.05)
        assert homogeneous_energy(100, 1.0, 2.0, 5_000, 1) == recs  # sieves its own table

    def test_projection_bound_holds(self, table_2k):
        for p in (0.5, 2 / 3):
            recs = homogeneous_energy(200, 2.0, p, 20_000, 9, table_2k)
            for rec in recs:
                if rec.params["m"] > 4 or rec.value == 0:
                    continue
                slack = 3 * (rec.std_error / (p * rec.value ** (p - 1)) if rec.value else 0)
                assert rec.value <= rec.extra["projection_bound"] + abs(slack)

    def test_rejects_bad_args(self, table_2k):
        with pytest.raises(ValueError):
            homogeneous_energy(1, 1.0, 0.5, 100, 1, table_2k)
        with pytest.raises(ValueError):
            homogeneous_energy(100, 0.5, 0.5, 100, 1, table_2k)


@pytest.mark.parametrize("experiment", ["witness", "ratio-probe", "homogeneous-energy", "scan"])
def test_one_lift_plan_per_experiment(experiment, table_2k, monkeypatch):
    # the partial sums (the smaller truncations of a scan among them) and the homogeneous
    # layers are evaluated on the whole polynomial's nodes
    plans = []
    build = norms._lift_plan
    monkeypatch.setattr(norms, "_lift_plan", lambda *args: plans.append(args) or build(*args))
    {
        "witness": lambda: partial_sum_witness(0.5, 3, 2_000, 1, table_2k),
        "ratio-probe": lambda: partial_sum_ratio_probe(zeta_partial(200), 50, 1.0, 2_000, 1, table_2k),
        "homogeneous-energy": lambda: homogeneous_energy(200, 1.5, 0.5, 2_000, 1, table_2k),
        "scan": lambda: pseudomoment_scan(1.5, 1.0, [10, 20, 40, 80], "mc", table_2k, samples=2_000, seed=1),
    }[experiment]()
    assert len(plans) == 1


class TestFuzzSuite:
    def test_default_clean(self, table_2k):
        summary = hl_fuzz_suite(FuzzConfig(corpus=25, seed=11), table_2k)[-1].extra
        assert summary["summary"]["violation"] == 0
        assert summary["summary"]["pass"] > 0
        assert not summary["violations"]

    def test_inverted_self_test(self, table_2k):
        summary = hl_fuzz_suite(FuzzConfig(corpus=4, seed=1, invert=True), table_2k)[-1].extra
        assert summary["summary"]["violation"] > 0
        assert all("reproducer" in v for v in summary["violations"])

    def test_empty_corpus(self, table_2k):
        records = hl_fuzz_suite(FuzzConfig(corpus=0), table_2k)
        assert records[-1].extra["summary"] == {"pass": 0, "pass-within-slack": 0, "violation": 0}
        assert [r.experiment for r in records] == ["fuzz-summary"]
        assert (records[0].value, records[0].normalizer, records[0].ratio) == (0.0, 0.0, 0.0)

    def test_summary_record_closes_the_run(self, table_2k):
        config = FuzzConfig(corpus=3, seed=1, samples=2000, invert=True)
        *cases, summary = hl_fuzz_suite(config, table_2k)
        assert all(r.experiment.startswith("fuzz:") for r in cases)
        assert summary.experiment == "fuzz-summary"
        assert summary.params == {"seed": 1, "samples": 2000, "method": "summary"}
        counts, violations = summary.extra["summary"], summary.extra["violations"]
        assert summary.value == counts["violation"] == len(violations) > 0
        assert summary.ratio == summary.value / 3
        # the counts and the violations are those of the case records
        verdicts = Counter(r.extra["verdict"] for r in cases)
        assert counts == {v: verdicts[v] for v in ("pass", "pass-within-slack", "violation")}
        assert [(v["inequality"], v["p"], v["case"], v["lhs"], v["rhs"], v["slack"]) for v in violations] == [
            (r.experiment.removeprefix("fuzz:"), r.params["p"], r.params["case"], r.value, r.normalizer,
             r.extra["slack"]) for r in cases if r.extra["verdict"] == "violation"]
        assert summary.extra == {"summary": counts, "violations": violations,
                                 "inequalities": list(config.inequalities),
                                 "p_values": list(config.p_values)}

    def test_unknown_inequality(self, table_2k):
        with pytest.raises(ValueError):
            hl_fuzz_suite(FuzzConfig(inequalities=("nope",)), table_2k)

    def test_negative_corpus(self, table_2k):
        with pytest.raises(ValueError):
            hl_fuzz_suite(FuzzConfig(corpus=-1), table_2k)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
    def test_p_must_be_positive_and_finite(self, p, table_2k):
        # refused before the first case, so an empty corpus is refused too
        with pytest.raises(ValueError, match="positive and finite"):
            hl_fuzz_suite(FuzzConfig(p_values=(1.0, p), corpus=0), table_2k)

    def test_constant_polynomial_clean(self, table_2k):
        # support 1 and max index 1 force f = {1: c}, and max degree 0 forces every disc
        # polynomial to a constant: |F| is constant, so each comparison of that side is an
        # equality up to rounding, which the slack must absorb
        for config in (FuzzConfig(corpus=20, max_support=1, max_index=1, seed=1),
                       FuzzConfig(corpus=20, max_degree=0, seed=1, samples=2000)):
            counts = hl_fuzz_suite(config, table_2k)[-1].extra["summary"]
            assert counts["violation"] == 0
            assert counts["pass-within-slack"] > 0

    def test_constant_polynomial_agrees_with_hl_report(self, table_2k):
        config = FuzzConfig(inequalities=(*HL_INEQUALITIES, "divisor-chain"), corpus=300,
                            max_support=1, max_index=1, seed=4, samples=2000)
        *cases, summary = hl_fuzz_suite(config, table_2k)
        flagged = {(r.params["case"], r.params["p"]) for r in cases
                   if r.extra["verdict"] == "violation" and r.experiment != "fuzz:divisor-chain"}
        for case in range(config.corpus):
            # with no disc checks the case's generator draws f first; f = {1: c} uses no
            # prime, so its estimate is the same for every seed
            f = random_dirichlet(np.random.default_rng((config.seed, case)), 1, 1)
            for p in config.p_values:
                est = mc_norm(f, p, config.samples, case, table_2k)
                consistent = hl_report(f, p, est, table_2k).verdict == "consistent"
                assert consistent == ((case, p) not in flagged), (case, p)
        assert summary.extra["summary"]["violation"] == 0

    def test_dirichlet_records_ascend_in_p(self, table_2k):
        config = FuzzConfig(corpus=3, seed=2, samples=2000)
        *cases, _ = hl_fuzz_suite(config, table_2k)
        for case in range(config.corpus):
            records = [r for r in cases if r.params["case"] == case]
            assert len(records) == 14
            for disc, count in ((True, 5), (False, 9)):
                ps = [r.params["p"] for r in records if r.experiment.startswith("fuzz:disc") == disc]
                assert ps == sorted(ps) and len(ps) == count

    def test_disc_degree_beyond_table(self):
        # the disc checks lift degree 12 to the index 2^12
        with pytest.raises(SieveLimitError):
            hl_fuzz_suite(FuzzConfig(max_degree=12), sieve_primes(1000))

    def test_sieves_the_disc_lift_itself(self):
        # given no table, the suite sieves 2^12 = 4096 for the disc lift of degree 12
        config = FuzzConfig(max_degree=12, corpus=2, seed=3, samples=2000)
        per_case = Counter(r.params["case"] for r in hl_fuzz_suite(config)[:-1])
        assert per_case == {0: 14, 1: 14}
        config = FuzzConfig(max_degree=10, corpus=2, seed=3, samples=2000)
        assert hl_fuzz_suite(config) == hl_fuzz_suite(config, sieve_primes(1024))

    @pytest.mark.parametrize("seed", range(4))
    def test_too_few_nodes_refused_before_the_first_case(self, seed, table_2k, monkeypatch):
        # degree 8 needs 36 nodes; whether a case draws degree 8 must not matter
        drawn = []
        monkeypatch.setattr(experiments, "random_disc", lambda *args: drawn.append(args) or random_disc(*args))
        with pytest.raises(ValueError, match="36 nodes"):
            hl_fuzz_suite(FuzzConfig(corpus=3, seed=seed, samples=2000, nodes=33), table_2k)
        assert not drawn
        # without a disc check the node count is not used
        config = FuzzConfig(inequalities=("hl-upper",), corpus=1, seed=seed, samples=2000, nodes=33)
        assert len(hl_fuzz_suite(config, table_2k)[:-1]) == 2

    def test_golden_records(self, table_2k):
        # float.hex of (value, normalizer) per record, from one evaluation of g per case and one
        # factoring per support; the same bits as a disc_norm per p and a factoring per weight.
        # The power-mean sides are the engine's means, not value**p rounded again
        records = hl_fuzz_suite(FuzzConfig(corpus=2, seed=3, samples=2000), table_2k)
        assert [(r.experiment.removeprefix("fuzz:"), r.params["case"], r.params["p"],
                 r.value.hex(), r.normalizer.hex()) for r in records[:-1]] == [
            ("disc-lower", 0, 0.5, "0x1.06f058569ff9ap+1", "0x1.1085ac3d37c22p+1"),
            ("disc-lower", 0, 1.0, "0x1.17231739b3553p+2", "0x1.2e2e9de66d014p+2"),
            ("disc-lower", 0, 1.3333333333333333, "0x1.c585d7ade9a02p+2", "0x1.05adc3ae0f4bep+3"),
            ("disc-upper", 0, 3.0, "0x1.29757da41b276p+7", "0x1.6bf8a04834944p+9"),
            ("disc-upper", 0, 5.0, "0x1.749e52815b6d0p+12", "0x1.5d50a00f6b6d2p+18"),
            ("hl-lower", 0, 0.5, "0x1.a114dbbb93458p-1", "0x1.8cb9208466954p+0"),
            ("squarefree-lower", 0, 0.5, "0x1.a114dbbb93458p-1", "0x1.8cb9208466954p+0"),
            ("hl-lower", 0, 1.0, "0x1.556de8c814107p+0", "0x1.43a94b3d7956ap+1"),
            ("squarefree-lower", 0, 1.0, "0x1.556de8c814107p+0", "0x1.43a94b3d7956ap+1"),
            ("divisor-chain", 0, 1.0, "0x1.ee51e4dc732d3p-1", "0x1.43a94b3d7956ap+1"),
            ("hl-lower", 0, 1.3333333333333333, "0x1.166a154273766p+1", "0x1.caf0508680575p+1"),
            ("squarefree-lower", 0, 1.3333333333333333, "0x1.166a154273766p+1", "0x1.caf0508680575p+1"),
            ("hl-upper", 0, 3.0, "0x1.903b1edd69862p+4", "0x1.289582209edffp+6"),
            ("hl-upper", 0, 5.0, "0x1.554f39e58f349p+8", "0x1.4f539129c1b38p+14"),
            ("disc-lower", 1, 0.5, "0x1.1e1ec25ba1972p+0", "0x1.bbfc61e81b51bp+0"),
            ("disc-lower", 1, 1.0, "0x1.ea93167d2d6c2p+0", "0x1.9711799ddcebap+1"),
            ("disc-lower", 1, 1.3333333333333333, "0x1.4825ea7825aa2p+1", "0x1.38645b5d50c60p+2"),
            ("disc-upper", 1, 3.0, "0x1.929ad4c187a6cp+5", "0x1.a81b88ce38cbap+9"),
            ("disc-upper", 1, 5.0, "0x1.06bc1daaf0825p+10", "0x1.19a11a811208fp+19"),
            ("hl-lower", 1, 0.5, "0x1.15c50e5441881p+0", "0x1.17fdc27cffeeap+1"),
            ("squarefree-lower", 1, 0.5, "0x1.03e56c5907057p+0", "0x1.17fdc27cffeeap+1"),
            ("hl-lower", 1, 1.0, "0x1.2b098f26ab117p+1", "0x1.486c717ee6491p+2"),
            ("squarefree-lower", 1, 1.0, "0x1.ac5d8dfc86d3bp+0", "0x1.486c717ee6491p+2"),
            ("divisor-chain", 1, 1.0, "0x1.1189c4306b6e5p+0", "0x1.486c717ee6491p+2"),
            ("hl-lower", 1, 1.3333333333333333, "0x1.1f33b447fa11ep+2", "0x1.2b1763644595ap+3"),
            ("squarefree-lower", 1, 1.3333333333333333, "0x1.5c6bbc6c51490p+1", "0x1.2b1763644595ap+3"),
            ("hl-upper", 1, 3.0, "0x1.ead44dc87f258p+7", "0x1.164191323a280p+11"),
            ("hl-upper", 1, 5.0, "0x1.1fcc53c26aabcp+14", "0x1.4eb1df1996ed8p+24"),
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_factoring_per_support(self, seed, table_2k, monkeypatch):
        # a case factors the lift of g, the support of f and f's lift-plan nodes once each,
        # for every weight of every p (a factoring per weight made 25)
        factorings = []
        kernel = arith.prime_power_passes
        monkeypatch.setattr(arith, "prime_power_passes", lambda *args: factorings.append(1) or kernel(*args))
        hl_fuzz_suite(FuzzConfig(corpus=1, seed=seed, samples=2000), table_2k)
        assert len(factorings) <= 3

    def test_exact_p4_upper(self, table_2k):
        # even-exponent route: no statistical slack needed
        from dirichlet_hardy.bounds import hl_upper_sum
        from dirichlet_hardy.experiments import random_dirichlet

        rng = np.random.default_rng(123)
        for case in range(500):
            f = random_dirichlet(rng, 64, 1000)
            lhs = even_norm_exact(f, 2).power_mean
            rhs = hl_upper_sum(f, 4.0, table_2k) ** 2
            assert lhs <= rhs * (1 + 1e-10)

    def test_exact_p2_lower(self, table_2k):
        from dirichlet_hardy.bounds import hl_lower_sum
        from dirichlet_hardy.experiments import random_dirichlet

        rng = np.random.default_rng(321)
        for case in range(500):
            f = random_dirichlet(rng, 64, 1000)
            assert hl_lower_sum(f, 2.0, table_2k) == pytest.approx(
                l2_norm(f).power_mean, rel=1e-12
            )


class TestWitnessBroadCoverage:
    @pytest.mark.parametrize("p", [0.5, 0.75])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bound_within_slack(self, p, k, table_2k):
        rec = partial_sum_witness(p, k, 40_000, 7, table_2k)
        assert rec.extra["a_M_error"] <= 1e-10
        assert rec.value >= rec.normalizer - 3 * rec.std_error


class TestFractionalOrderMoment:
    def test_sandwiched_between_integer_orders(self, table_2k):
        # power means increase with the exponent, so the 2k-norm at k=1.5
        # sits between the k=1 and k=2 norms
        e1 = pseudomoment(60, 1, 1.0, "exact").value ** 0.5
        e2 = pseudomoment(60, 2, 1.0, "exact").value ** 0.25
        rec = pseudomoment(60, 1.5, 1.0, "mc", table_2k, samples=60_000, seed=5)
        norm = rec.value ** (1 / 3)
        rel = rec.std_error / (3 * rec.value)  # delta method on the cube root
        assert e1 * (1 - 3 * rel) <= norm <= e2 * (1 + 3 * rel)


@pytest.mark.parametrize("N, k, alpha", [(40, 4, 1.0), (300, 2, 1.5), (10, 3, 1.0)])
def test_convolution_value_is_the_fsum(N, k, alpha, table_2k):
    # the record keeps the engine's power mean, not its 2k-th root raised to 2k again
    fk = dirichlet_power(zeta_power_partial(N, alpha, table_2k), k)
    total = math.fsum(abs(c) ** 2 for c in fk.coefficients.values())
    rec = pseudomoment(N, k, alpha, "exact", table_2k)
    assert rec.extra["algorithm"] == "convolution"
    assert rec.value.hex() == total.hex()
    assert even_norm_exact(zeta_power_partial(N, alpha, table_2k), k).power_mean.hex() == total.hex()


def test_sixth_moment_convolution_route(table_2k):
    rec = pseudomoment(10, 3, 1.0, "exact", table_2k)
    conv = even_norm_exact(zeta_partial(10), 3).power_mean
    assert rec.value == pytest.approx(conv, rel=1e-12)
    assert rec.extra["algorithm"] == "convolution"


def test_fuzz_deterministic_across_workers(table_2k):
    a = hl_fuzz_suite(FuzzConfig(corpus=6, seed=13, samples=6000, workers=1), table_2k)
    b = hl_fuzz_suite(FuzzConfig(corpus=6, seed=13, samples=6000, workers=4), table_2k)
    assert [r.value for r in a] == [r.value for r in b]
    assert a[-1].extra["summary"] == b[-1].extra["summary"]
