import math

import numpy as np
import pytest

from dirichlet_hardy.arith import divisor_values, factoring
from dirichlet_hardy.bounds import (
    CoefficientBound,
    coeff_functional_bound,
    coeff_functional_exact,
    coeff_functional_multiplicative,
    hl_comparisons,
    hl_lower_sum,
    hl_report,
    hl_upper_sum,
    point_evaluation_margin,
    primitive_pairing,
    squarefree_lower_sum,
)
from dirichlet_hardy.dseries import DirichletPolynomial, duality_witness, zeta_partial
from dirichlet_hardy.norms import NormEstimate, even_norm_exact, l2_norm, mc_norm, mc_norm_many


class TestWeightedSums:
    def test_upper_examples(self, table_2k):
        f = DirichletPolynomial({1: 1, 2: 1})
        assert hl_upper_sum(f, 4.0, table_2k) == pytest.approx(3.0, rel=1e-14)
        assert hl_upper_sum(DirichletPolynomial({1: 2j}), 7.3, table_2k) == pytest.approx(4.0)
        assert hl_upper_sum(zeta_partial(2), 2.0, table_2k) == pytest.approx(1.5)

    def test_lower_examples(self, table_2k):
        f = DirichletPolynomial({1: 1, 2: 1})
        assert hl_lower_sum(f, 1.0, table_2k) == pytest.approx(1.5)
        g = DirichletPolynomial({1: 1, 4: 1})
        assert hl_lower_sum(g, 1.0, table_2k) == pytest.approx(1 + 1 / 3)
        many = DirichletPolynomial({n: complex(1, n) for n in range(1, 30)})
        assert hl_lower_sum(many, 2.0, table_2k) == pytest.approx(
            l2_norm(many).value ** 2, rel=1e-14
        )

    def test_squarefree_examples(self, table_2k):
        assert squarefree_lower_sum(DirichletPolynomial({1: 1, 2: 1}), 1.0, table_2k) == 1.5
        assert squarefree_lower_sum(DirichletPolynomial({1: 1, 4: 1}), 1.0, table_2k) == 1.0
        assert squarefree_lower_sum(DirichletPolynomial({6: 1}), 1.0, table_2k) == 0.25

    def test_domains(self, table_2k):
        f = zeta_partial(3)
        with pytest.raises(ValueError):
            hl_upper_sum(f, 1.9, table_2k)
        with pytest.raises(ValueError):
            hl_lower_sum(f, 2.1, table_2k)
        with pytest.raises(ValueError):
            squarefree_lower_sum(f, 0.0, table_2k)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_factoring_for_every_sum(self, seed, table_2k):
        # the sums read a factoring of the support made once, with the bits of their own
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 80))
        indices = rng.choice(np.arange(1, 2001), size, replace=False)
        f = DirichletPolynomial({int(n): complex(a, b) for n, a, b in
                                 zip(indices, rng.standard_normal(size), rng.standard_normal(size))})
        support = list(f.coefficients)
        passes = factoring(support, table_2k)
        for p in (2.0, 3.0, 5.0, 7.3):
            assert hl_upper_sum(f, p, table_2k, passes).hex() == hl_upper_sum(f, p, table_2k).hex()
        for p in (0.3, 0.5, 1.0, 4 / 3, 2.0):
            for weighted_sum in (hl_lower_sum, squarefree_lower_sum):
                assert weighted_sum(f, p, table_2k, passes).hex() == weighted_sum(f, p, table_2k).hex()
        assert np.array_equal(divisor_values(support, 2.0, table_2k, passes),
                              divisor_values(support, 2.0, table_2k))

    def test_squarefree_agreement_and_difference(self, table_2k):
        # equal on square-free support; the squared index is dropped vs reweighted
        rng = np.random.default_rng(4)
        sf = DirichletPolynomial({int(n): complex(v) for n, v in
                                  zip((1, 2, 3, 5, 6, 10, 15, 30), rng.standard_normal(8))})
        for p in (0.5, 1.0, 2.0):
            assert hl_lower_sum(sf, p, table_2k) == pytest.approx(
                squarefree_lower_sum(sf, p, table_2k), rel=1e-14
            )
        mixed = DirichletPolynomial({2: 1.0, 4: 2.0})
        p = 1.0
        diff = hl_lower_sum(mixed, p, table_2k) - squarefree_lower_sum(mixed, p, table_2k)
        assert diff == pytest.approx(4.0 / 3.0)  # |a_4|^2 / d_2(4)


class TestCoefficientFunctional:
    def test_exact_values(self):
        assert coeff_functional_exact(1.0) == 1.0
        assert coeff_functional_exact(2.5) == 1.0
        assert coeff_functional_exact(0.5) == pytest.approx(2 * (3 / 4) ** 1.5, rel=1e-14)

    def test_continuous_at_one(self):
        assert coeff_functional_exact(1 - 1e-9) == pytest.approx(1.0, abs=1e-7)

    def test_small_p_limit(self):
        p = 1e-4
        assert math.sqrt(p) * coeff_functional_exact(p) == pytest.approx(
            math.sqrt(2 / math.e), abs=1e-3
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            coeff_functional_exact(0.0)

    def test_binomial_route(self):
        b = coeff_functional_bound(1, 0.5)
        assert b.candidates["binomial"] == 2.0

    def test_dominates_exact_at_k1(self):
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            b = coeff_functional_bound(1, p)
            assert b.value >= coeff_functional_exact(p) - 1e-12

    def test_minimizer_against_grid_oracle(self):
        for k, p in ((1, 0.5), (2, 0.5), (3, 0.25), (2, 0.9)):
            got = coeff_functional_bound(k, p).candidates["minimized"]
            xs = np.linspace(p, 1 - 1e-9, 200_001)
            oracle = float(np.min(xs ** (-k / 2) * (1 - xs) ** (1 / xs - 1 / p)))
            assert got == pytest.approx(oracle, rel=1e-7)
            assert got <= oracle + 1e-10

    def test_domain(self):
        for p in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                coeff_functional_bound(1, p)

    def test_multiplicative(self, table_2k):
        assert coeff_functional_multiplicative(6, 0.5, table_2k) == pytest.approx(
            27 / 16, rel=1e-12
        )
        assert coeff_functional_multiplicative(1, 0.5, table_2k) == 1.0
        assert coeff_functional_multiplicative(4, 0.5, table_2k) == pytest.approx(
            coeff_functional_bound(2, 0.5).value, rel=1e-12
        )

    def test_multiplicative_squarefree_power(self, table_2k):
        c1 = coeff_functional_exact(0.3)
        assert coeff_functional_multiplicative(210, 0.3, table_2k) == pytest.approx(
            c1**4, rel=1e-12
        )


class TestPointEvaluation:
    def test_constant(self, table_2k):
        f = DirichletPolynomial({1: 1})
        n = l2_norm(f)
        assert point_evaluation_margin(f, [0.5, 0.3], 2.0, n, table_2k) >= 0

    def test_origin(self, table_2k):
        f = DirichletPolynomial({1: 0.7, 2: 1, 6: -2j})
        n = l2_norm(f)
        margin = point_evaluation_margin(f, [], 2.0, n, table_2k)
        assert margin == pytest.approx(n.value - 0.7, rel=1e-12)
        assert margin >= 0

    def test_example_value(self, table_2k):
        f = DirichletPolynomial({1: 1, 2: 1})
        margin = point_evaluation_margin(f, [0.5], 2.0, l2_norm(f), table_2k)
        assert margin == pytest.approx((4 / 3) ** 0.5 * math.sqrt(2) - 1.5, rel=1e-12)

    def test_rejects_boundary_point(self, table_2k):
        f = DirichletPolynomial({1: 1})
        with pytest.raises(ValueError):
            point_evaluation_margin(f, [1.0], 2.0, l2_norm(f), table_2k)

    def test_nonnegative_over_random_points(self, table_20k):
        rng = np.random.default_rng(8)
        for _ in range(20):
            idx = rng.choice(np.arange(1, 500), size=10, replace=False)
            f = DirichletPolynomial(
                {int(n): complex(v) for n, v in zip(idx, rng.standard_normal(10))}
            )
            radii = rng.uniform(0, 0.7, size=4)
            phases = np.exp(2j * np.pi * rng.uniform(size=4))
            z = list(radii * phases)
            margin = point_evaluation_margin(f, z, 2.0, l2_norm(f), table_20k)
            assert margin >= -1e-10


class TestPrimitivePairing:
    def test_constant(self):
        assert primitive_pairing(DirichletPolynomial({1: 2j}), 0.7) == 2j

    def test_single_term(self):
        got = primitive_pairing(DirichletPolynomial({2: 1}), 1.0)
        assert got == pytest.approx(2**-0.5 / math.log(2), rel=1e-14)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            primitive_pairing(DirichletPolynomial({1: 1}), 0.0)

    def test_witness_growth(self, table_20k):
        # pairing against the witness grows with the truncation when beta < 2/p
        p, beta = 1.0, 1.0
        grid = (100, 1000, 10000)
        values = [
            abs(primitive_pairing(duality_witness(p, N, N, table_20k), beta))
            for N in grid
        ]
        assert values[0] < values[1] < values[2]
        # trend toward growth like (log N)^(2/p - beta) = log N: the log-log slope
        # sits below 1 at desk scale and climbs toward it
        import numpy as np

        x = np.log(np.log(np.array(grid, dtype=float)))
        y = np.log(np.array(values))
        slopes = np.diff(y) / np.diff(x)
        assert 0.4 < slopes[0] < slopes[1] < 1.05


class TestHLReport:
    @pytest.mark.parametrize("p, names", [
        (0.5, ["hl-lower", "squarefree-lower"]),
        (2.0, ["hl-upper", "hl-lower", "squarefree-lower"]),
        (3.0, ["hl-upper"]),
    ])
    def test_comparisons_that_apply(self, p, names, table_2k):
        f = DirichletPolynomial({1: 1, 2: 1j, 4: 0.5})
        norm = mc_norm(f, p, 4000, 1, table_2k)
        (comparisons,) = hl_comparisons(f, [norm], table_2k)
        assert [c[0] for c in comparisons] == names
        sums = {"hl-upper": hl_upper_sum, "hl-lower": hl_lower_sum, "squarefree-lower": squarefree_lower_sum}
        for name, weighted_sum, smaller, larger in comparisons:
            assert weighted_sum == sums[name](f, p, table_2k)
            sides = (norm.power_mean, weighted_sum ** (p / 2))
            assert (smaller, larger) == (sides if name == "hl-upper" else sides[::-1])
        assert hl_comparisons(f, [norm], table_2k, ["squarefree-lower"]) == [
            [c for c in comparisons if c[0] == "squarefree-lower"]]

    def test_comparisons_of_several_estimates(self, table_2k):
        # one call per polynomial gives, per estimate, what a call on that estimate alone gives
        f = DirichletPolynomial({1: 1, 2: 1j, 4: 0.5, 6: -2, 9: 0.25j})
        norms = mc_norm_many(f, [3.0, 0.5, 2.0, 1.0], 4000, 1, table_2k)
        assert hl_comparisons(f, norms, table_2k) == [hl_comparisons(f, [n], table_2k)[0] for n in norms]
        assert hl_comparisons(f, [], table_2k) == []

    def test_report_needs_the_estimates_p(self, table_2k):
        f = DirichletPolynomial({1: 1, 2: 1j})
        with pytest.raises(ValueError, match="p=2.0"):
            hl_report(f, 4.0, l2_norm(f), table_2k)

    def test_consistent_exact(self, table_2k):
        f = DirichletPolynomial({1: 1, 2: 1j, 6: 0.25})
        rep = hl_report(f, 2.0, l2_norm(f), table_2k)
        assert rep.verdict == "consistent"
        assert rep.upper_sum is not None and rep.lower_sum is not None

    def test_consistent_even(self, table_2k):
        f = DirichletPolynomial({1: 1, 2: 1j, 6: 0.25})
        rep = hl_report(f, 4.0, even_norm_exact(f, 2), table_2k)
        assert rep.verdict == "consistent"
        assert rep.lower_sum is None and rep.squarefree_sum is None

    def test_violation_flagged(self, table_2k):
        f = DirichletPolynomial({1: 1, 2: 1})
        # an implausibly small norm estimate breaks the lower bounds
        fake = NormEstimate(p=1.0, value=0.1, power_mean=0.1, method="monte_carlo", samples=10,
                            std_error=0.001)
        rep = hl_report(f, 1.0, fake, table_2k)
        assert rep.verdict == "violation-suspected"

    def test_mc_consistent(self, table_2k):
        f = DirichletPolynomial({1: 1, 2: -1j, 4: 0.5})
        est = mc_norm(f, 1.0, 20_000, 3, table_2k)
        rep = hl_report(f, 1.0, est, table_2k)
        assert rep.verdict == "consistent"
        assert rep.norm.seed == 3


class TestPointEvaluationWithMC:
    def test_margin_with_stochastic_norm(self, table_2k):
        from dirichlet_hardy.norms import mc_norm

        rng = np.random.default_rng(77)
        for case in range(6):
            idx = rng.choice(np.arange(1, 300), size=12, replace=False)
            f = DirichletPolynomial(
                {int(n): complex(a, b) for n, a, b in
                 zip(idx, rng.standard_normal(12), rng.standard_normal(12))}
            )
            p = float(rng.choice([0.5, 1.0, 3.0]))
            est = mc_norm(f, p, 40_000, 900 + case, table_2k)
            z = list(rng.uniform(0, 0.6, size=3) * np.exp(2j * np.pi * rng.uniform(size=3)))
            margin = point_evaluation_margin(f, z, p, est, table_2k)
            growth = float(np.prod([(1 - abs(w) ** 2) ** (-1 / p) for w in z]))
            assert margin >= -3 * growth * est.value_std_error
