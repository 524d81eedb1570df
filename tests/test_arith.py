import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import big_omega, d_alpha, factor, kappa, mobius, phi_alpha, primes_upto

from dirichlet_hardy import arith
from dirichlet_hardy.arith import (
    average_order_constant,
    average_order_factor,
    binomial_series_coefficient,
    divisor_values,
    divisor_weight_prime_power,
    divisor_weight_sum,
    divisor_weight_values,
    euler_product,
    factoring,
    factorize,
    multiplicative,
    omega_class_counts,
    omega_sieve,
    prime_power_passes,
    pseudomoment_leading_factor,
    pseudomoment_ratio_bounds,
    sieve_primes,
)
from dirichlet_hardy.errors import MEMORY_CAP_ENV, ResourceLimitError, SieveLimitError


_HYP_TABLE = sieve_primes(2000)  # shared by hypothesis cases; fixtures do not mix with @given


class TestSieve:
    def test_small(self):
        assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]

    def test_boundary(self):
        assert sieve_primes(2).primes.tolist() == [2]

    def test_against_trial_division(self):
        table = sieve_primes(100)
        assert table.primes.tolist() == list(primes_upto(100))
        assert table.prime_count == 25

    def test_invariants(self):
        table = sieve_primes(500)
        prs = table.primes.tolist()
        assert prs == sorted(set(prs))
        assert prs == list(primes_upto(500))
        for p in prs:
            assert table.smallest_factor[p] == p
        # least factor really is least
        for n in range(2, 501):
            assert int(table.smallest_factor[n]) == factor(n)[0][0]

    def test_limit_too_small(self):
        with pytest.raises(ValueError):
            sieve_primes(1)

    def test_charges_its_peak_memory(self, monkeypatch):
        # the bytes checked against the cap cover what the sieve really allocates, with little to spare
        tracemalloc.start()
        try:
            reference = sieve_primes(2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setenv(MEMORY_CAP_ENV, str(peak - 1))
        with pytest.raises(ResourceLimitError):
            sieve_primes(2_000_000)
        monkeypatch.setenv(MEMORY_CAP_ENV, str(int(1.05 * peak)))
        table = sieve_primes(2_000_000)
        assert np.array_equal(table.primes, reference.primes)
        assert np.array_equal(table.smallest_factor, reference.smallest_factor)

    def test_prime_lookup(self):
        table = sieve_primes(100)
        assert table.prime(1) == 2
        assert table.prime(25) == 97
        assert table.prime_index(97) == 25
        with pytest.raises(ValueError):
            table.prime_index(98)


class TestFactorize:
    def test_360(self, table_2k):
        f = factorize(360, table_2k)
        assert f.factors == ((2, 3), (3, 2), (5, 1))
        assert (f.big_omega, f.small_omega, f.mobius) == (6, 3, 0)
        assert f.kappa == (3, 2, 1)

    def test_squarefree(self, table_2k):
        f = factorize(30, table_2k)
        assert f.factors == ((2, 1), (3, 1), (5, 1))
        assert f.mobius == -1

    def test_one(self, table_2k):
        f = factorize(1, table_2k)
        assert f.factors == ()
        assert (f.big_omega, f.mobius) == (0, 1)
        assert f.kappa == ()

    def test_beyond_limit(self, table_2k):
        with pytest.raises(SieveLimitError):
            factorize(2001, table_2k)

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, n):
        f = factorize(n, _HYP_TABLE)
        assert f.factors == tuple(factor(n))
        assert (f.big_omega, f.small_omega, f.mobius) == (big_omega(n), len(factor(n)), mobius(n))
        assert f.kappa == kappa(n)


class TestBinomialSeries:
    def test_alpha_one(self):
        for j in range(20):
            assert binomial_series_coefficient(j, 1.0) == 1.0

    def test_integer(self):
        assert binomial_series_coefficient(2, 3.0) == 6.0
        assert binomial_series_coefficient(5, 2.0) == 6.0

    def test_half(self):
        assert binomial_series_coefficient(1, 0.5) == 0.5

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            binomial_series_coefficient(3, 0.0)
        with pytest.raises(ValueError):
            binomial_series_coefficient(3, -1.0)

    @pytest.mark.parametrize("alpha", [1.25, 2.0, 3.5])
    def test_submultiplicative(self, alpha):
        c = [binomial_series_coefficient(j, alpha) for j in range(101)]
        for j in range(0, 51, 5):
            for k in range(0, 51, 5):
                assert c[j + k] <= c[j] * c[k] * (1 + 1e-12)

    @pytest.mark.parametrize("alpha,k", [(1.0, 2), (1.0, 3), (2.0, 2), (2.0, 3)])
    def test_composition_identity(self, alpha, k):
        # c_{alpha k}(j) equals the k-fold convolution of c_alpha at j
        for j in range(11):
            total = 0.0
            stack = [(j, k, 1.0)]
            while stack:
                rem, parts, acc = stack.pop()
                if parts == 1:
                    total += acc * binomial_series_coefficient(rem, alpha)
                    continue
                for first in range(rem + 1):
                    stack.append(
                        (rem - first, parts - 1, acc * binomial_series_coefficient(first, alpha))
                    )
            assert total == pytest.approx(binomial_series_coefficient(j, alpha * k), rel=1e-12)


def ones_convolution_oracle(x, alpha):
    """d_alpha for integer alpha by repeated all-ones Dirichlet convolution."""
    out = np.zeros(x + 1, dtype=np.int64)
    out[1:] = 1
    for _ in range(alpha - 1):
        nxt = np.zeros(x + 1, dtype=np.int64)
        for d in range(1, x + 1):
            nxt[d::d] += out[1 : x // d + 1]
        out = nxt
    return out


class TestDivisorFunction:
    def test_examples(self, table_2k):
        assert divisor_values([12], 2.0, table_2k).tolist() == [6.0]
        assert divisor_values([4], 0.5, table_2k)[0] == pytest.approx(3 / 8, rel=1e-15)
        assert divisor_values([1, 7, 360, 1024], 1.0, table_2k).tolist() == [1.0] * 4

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_counts_ordered_tuples(self, alpha, table_100k):
        x = 100_000
        oracle = ones_convolution_oracle(x, alpha)
        assert np.array_equal(oracle[1:], divisor_values(np.arange(1, x + 1), alpha, table_100k))


class TestDivisorWeight:
    def test_examples(self, table_2k):
        assert divisor_weight_values([12], 2.0, table_2k).tolist() == [6.0]
        assert divisor_weight_values([2, 4], 1.5, table_2k) == pytest.approx([1.5, 2.25], rel=1e-15)

    def test_rejects_alpha_below_one(self, table_2k):
        with pytest.raises(ValueError):
            divisor_weight_values([10], 0.9, table_2k)
        with pytest.raises(ValueError):
            divisor_weight_prime_power(2, 0.5)

    def test_matches_divisor_function_on_integers_and_squarefree(self, table_20k):
        ns = np.random.default_rng(1).integers(1, 20000, size=100)
        assert np.array_equal(divisor_weight_values(ns, 2.0, table_20k), divisor_values(ns, 2.0, table_20k))
        squarefree = ns[[mobius(int(n)) != 0 for n in ns]]
        assert squarefree.size > 50
        assert divisor_weight_values(squarefree, 1.7, table_20k) == pytest.approx(
            divisor_values(squarefree, 1.7, table_20k), rel=1e-12
        )

    def test_multiplicative_on_coprime_pairs(self, table_100k):
        rng = np.random.default_rng(2)
        alpha = 2.5
        pairs = []
        while len(pairs) < 60:
            m, n = int(rng.integers(2, 10000)), int(rng.integers(2, 10))
            if math.gcd(m, n) == 1:
                pairs.append((m, n))
        m, n = np.array(pairs).T
        assert divisor_weight_values(m * n, alpha, table_100k) == pytest.approx(
            divisor_weight_values(m, alpha, table_100k) * divisor_weight_values(n, alpha, table_100k),
            rel=1e-12,
        )

    def test_prime_power_weight_consistency(self, table_2k):
        # the n = p^j weight equals the one-variable weight at j
        for alpha in (1.5, 2.25, 3.0):
            assert divisor_weight_values([2**j for j in range(5)], alpha, table_2k).tolist() == [
                divisor_weight_prime_power(j, alpha) for j in range(5)
            ]

    def test_one_factoring_serves_every_fold(self, table_100k, monkeypatch):
        # the weight is one fold of its local factor, with the trial-division oracle's bits;
        # 100000 indices span two blocks, which one factoring streams
        ns = np.arange(1, 100_001)
        for alpha in (1.5, 2.5, 2 / 0.3):
            assert np.array_equal(divisor_weight_values(ns, alpha, table_100k),
                                  [phi_alpha(n, alpha) for n in ns.tolist()])
        # where every power of alpha/m is exact, as at each alpha of the default fuzz grid, the
        # fold has the bits of the product d_m(n) (alpha/m)^Omega(n) folded from (alpha/m)^Omega
        omega = multiplicative(ns, table_100k, lambda e: e, np.add)
        for alpha in (1.25, 1.5, 2.5, 3.0, 4.0):
            m = math.floor(alpha)
            start = np.array([(alpha / m) ** j for j in range(int(omega.max()) + 1)])[omega]
            product = multiplicative(ns, table_100k, lambda e: binomial_series_coefficient(e, m), start=start)
            assert np.array_equal(divisor_weight_values(ns, alpha, table_100k), product)
        factorings = []
        kernel = arith.prime_power_passes
        monkeypatch.setattr(arith, "prime_power_passes", lambda *args: factorings.append(1) or kernel(*args))
        divisor_weight_values(ns, 1.5, table_100k)
        assert len(factorings) == 1
        # folds over listed passes factor nothing: the six factorings are the runs without them
        support = np.random.default_rng(3).integers(1, 100_000, size=200)
        passes = factoring(support, table_100k)
        factorings.clear()
        for alpha in (1.0, 1.5, 2.5):
            assert np.array_equal(divisor_values(support, alpha, table_100k, passes),
                                  divisor_values(support, alpha, table_100k))
            assert np.array_equal(divisor_weight_values(support, alpha, table_100k, passes),
                                  divisor_weight_values(support, alpha, table_100k))
        assert len(factorings) == 6

    def test_empty_index_array(self, table_2k):
        assert divisor_weight_values([], 1.5, table_2k).size == 0
        assert divisor_weight_values([], 1.5, table_2k, factoring([], table_2k)).size == 0


class TestAverageOrderFactor:
    def test_at_zero(self):
        for alpha in (1.0, 1.5, 2.7):
            assert average_order_factor(0.0, alpha) == 1.0

    def test_integer_alpha_is_one(self):
        for x in (0.0, 0.3, 0.49):
            assert average_order_factor(x, 2.0) == 1.0

    def test_value(self):
        assert average_order_factor(0.5, 1.5) == pytest.approx(1.414214, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            average_order_factor(2 / 3, 1.5)  # floor/alpha = 2/3
        with pytest.raises(ValueError):
            average_order_factor(-0.1, 1.5)

    @pytest.mark.parametrize("alpha", [1.3, 1.9, 2.4, 3.5])
    def test_monotone_in_alpha_and_bounded(self, alpha):
        for i in range(50):
            x = 0.5 * i / 49
            ga = average_order_factor(x, alpha)
            ga1 = average_order_factor(x, alpha + 1)
            assert ga1 <= ga + 1e-12
            bound = 16 * (alpha - 1) / (2 - alpha) ** 3 if alpha < 2 else 384.0
            assert 1 - 1e-12 <= ga <= 1 + x * x * bound + 1e-12


class TestEulerProduct:
    def test_zeta_two(self):
        result = euler_product(lambda p: -math.log1p(-(p**-2)), 10**5, 2.0, decay_constant=4 / 3)
        # bracket zeta(2) by partial sums plus the integral-test tail
        K = 10**6
        partial = math.fsum(n**-2 for n in range(1, K + 1))
        lo, hi = partial + 1 / (K + 1), partial + 1 / K
        assert result.value <= hi * math.exp(result.tail_bound)
        assert result.value >= lo * math.exp(-result.tail_bound)

    def test_trivial_product(self):
        result = euler_product(lambda p: 0.0, 1000, 2.0, decay_constant=0.0)
        assert result.value == 1.0
        assert result.tail_bound == 0.0

    def test_tail_decreases_with_limit(self):
        a = euler_product(lambda p: -math.log1p(-(p**-2)), 10**3, 2.0, decay_constant=4 / 3)
        b = euler_product(lambda p: -math.log1p(-(p**-2)), 10**4, 2.0, decay_constant=4 / 3)
        assert b.tail_bound < a.tail_bound

    def test_rejects_nonpositive_factor(self):
        # a zero or negative local factor has no finite log; the error names the prime
        for log_factor in (-math.inf, math.nan, math.inf):
            with pytest.raises(ValueError, match="p=7"):
                euler_product(lambda p: log_factor if p == 7 else 0.0, 100, 2.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            euler_product(lambda p: 0.0, 1, 2.0)
        with pytest.raises(ValueError):
            euler_product(lambda p: 0.0, 100, 1.0)

    def test_underflowing_product_keeps_its_log(self):
        # 2^(-2000) underflows; its log does not
        result = euler_product(lambda p: -2000 * math.log(2) if p == 2 else 0.0, 100, 2.0, 0.0)
        assert result.value == 0.0
        assert result.log_value == -2000 * math.log(2)


class TestPseudomomentConstants:
    def test_upper_exactly_one_at_k1(self):
        for limit in (100, 10_000, 100_000):
            upper, _ = pseudomoment_ratio_bounds(1.0, limit)
            assert upper.value == 1.0
            assert upper.tail_bound == 0.0

    def test_lower_at_k1(self):
        _, lower = pseudomoment_ratio_bounds(1.0, 100_000)
        assert 0 < lower.value < 1
        # Gamma(3)^(-1/2) fsum product over primes
        direct = math.fsum(
            math.log((1 - 1 / p) * math.sqrt(1 + 2 / p))
            for p in sieve_primes(100_000).primes.tolist()
        ) - 0.5 * math.log(2)
        assert lower.log_value == pytest.approx(direct, abs=1e-12)

    def test_order_and_stirling_window(self):
        upper, lower = pseudomoment_ratio_bounds(4.0, 10**5)
        assert lower.log_value <= upper.log_value
        # desk-scale check of the super-exponential decay
        assert upper.log_value <= -0.5 * 16 * math.log(4)

    def test_stirling_trend(self):
        # log(constant) / (k^2 log k) drifts toward -1 (upper) and -2 (lower)
        ks = (4.0, 8.0, 16.0, 32.0, 64.0)
        ratios = {}
        for k in ks:
            upper, lower = pseudomoment_ratio_bounds(k, 10**5)
            denom = k * k * math.log(k)
            ratios[k] = (upper.log_value / denom, lower.log_value / denom)
        for small, large in zip(ks, ks[1:]):
            assert abs(ratios[large][0] + 1) < abs(ratios[small][0] + 1)
            assert abs(ratios[large][1] + 2) < abs(ratios[small][1] + 2)

    @pytest.mark.parametrize("k", [33.0, 40.5, 64.0])
    def test_large_k_constants_are_finite_logs(self, k):
        # (1 - 1/2)^(k^2) alone underflows past k^2 = 1074; the logs do not
        upper, lower = pseudomoment_ratio_bounds(k, 10**5)
        assert math.isfinite(upper.log_value) and math.isfinite(lower.log_value)
        assert lower.log_value <= upper.log_value
        assert upper.value == 0.0 and lower.value == 0.0
        if k.is_integer():
            assert upper.log_value == -k * math.lgamma(k + 1)
            assert upper.tail_bound == 0.0
        else:
            assert upper.tail_bound > 0.0

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            pseudomoment_ratio_bounds(0.5, 1000)

    def test_leading_factor(self):
        one = pseudomoment_leading_factor(1, 10_000)
        assert one.value == pytest.approx(1.0, abs=1e-12)
        two = pseudomoment_leading_factor(2, 100_000)
        assert two.value == pytest.approx(6 / math.pi**2, abs=2 * two.tail_bound + 1e-9)

    def test_leading_factor_truncations_in_closed_form(self):
        # the local factors at k = 1, 2, 3 are 1, 1 - x^2 and (1-x)^4 (1 + 4x + x^2)
        primes = sieve_primes(100_000).primes.tolist()
        assert pseudomoment_leading_factor(1, 100_000).log_value == 0.0
        two = math.fsum(math.log1p(-1 / (p * p)) for p in primes)
        assert pseudomoment_leading_factor(2, 100_000).log_value == pytest.approx(two, abs=1e-15)
        three = math.fsum(4 * math.log1p(-1 / p) + math.log1p((4 * p + 1) / (p * p)) for p in primes)
        assert pseudomoment_leading_factor(3, 100_000).log_value == pytest.approx(three, abs=1e-15)

    def test_leading_factor_local_logs_past_the_float_range(self, monkeypatch):
        # at k = 700 the local polynomial passes 2^1024 at p = 2, not at p = 3; both
        # must match a log-sum-exp of its terms C(k-1, j)^2 p^(-j)
        local_logs = []
        monkeypatch.setattr(arith, "euler_product", lambda local_log, *args, **kw: local_logs.append(local_log))
        m = 699
        pseudomoment_leading_factor(m + 1, 2 * (m + 1) ** 2 + 1)
        for p in (2, 3):
            lg = [math.lgamma(j + 1) for j in range(m + 1)]
            terms = [2 * (lg[m] - lg[j] - lg[m - j]) - j * math.log(p) for j in range(m + 1)]
            top = max(terms)
            log_poly = top + math.log(math.fsum(math.exp(t - top) for t in terms))
            assert local_logs[0](p) - m * m * math.log1p(-1 / p) == pytest.approx(log_poly, rel=1e-12)

    @pytest.mark.parametrize("k", [40, 200])
    def test_large_k_leading_factor_is_a_finite_log(self, k):
        # the squared coefficients c_k(j)^2 pass the float range at k = 200
        lead = pseudomoment_leading_factor(k, 10**5)
        assert math.isfinite(lead.log_value) and lead.log_value < 0
        assert lead.value == 0.0


class TestOmegaCounts:
    def test_against_brute_force(self, table_2k):
        def brute_omega(n):
            count, d = 0, 2
            while d * d <= n:
                while n % d == 0:
                    count += 1
                    n //= d
                d += 1
            return count + (1 if n > 1 else 0)

        counts = omega_class_counts(100, table_2k)
        brute = [brute_omega(n) for n in range(1, 101)]
        for m in range(counts.size):
            assert counts[m] == sum(1 for b in brute if b == m)
        assert counts[1] == 25
        assert counts[2] == 34

    def test_partition(self, table_20k):
        for x in (1, 2, 100, 12345):
            counts = omega_class_counts(x, table_20k)
            assert counts.sum() == x
            assert counts[0] == 1

    def test_kernel_matches_trial_division(self, table_20k):
        # the passes give each index its prime powers in ascending order, and every fold
        # over them equals the trial-division definition bit for bit, for all n <= 5000
        ns = list(range(1, 5001))
        passes = [[] for _ in ns]
        for rows, p, e in prime_power_passes(ns, table_20k):
            for row, q, k in zip(rows.tolist(), p.tolist(), e.tolist()):
                passes[row].append((q, k))
        assert passes == [factor(n) for n in ns]
        assert np.array_equal(omega_sieve(5000, table_20k)[1:], [big_omega(n) for n in ns])
        mu = multiplicative(ns, table_20k, lambda e: -1 if e == 1 else 0)
        assert np.array_equal(mu, [mobius(n) for n in ns])
        for alpha in (2 / 0.3, 0.7):
            assert np.array_equal(divisor_values(ns, alpha, table_20k), [d_alpha(n, alpha) for n in ns])
        alpha = 2 / 0.3
        assert np.array_equal(divisor_weight_values(ns, alpha, table_20k), [phi_alpha(n, alpha) for n in ns])


class TestDivisorWeightSum:
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.7, 3.2])
    def test_matches_direct_sum(self, alpha, table_20k):
        x = 2000
        direct = math.fsum(phi_alpha(n, alpha) for n in range(1, x + 1))
        assert divisor_weight_sum(x, alpha, table_20k) == pytest.approx(direct, rel=1e-12)

    def test_average_order_constant_value(self):
        # the alpha = 1.5 constant: independent high-precision partial product
        c = average_order_constant(1.5, 50_000)
        primes = sieve_primes(50_000).primes.tolist()
        direct = math.fsum(
            1.5 * math.log1p(-1 / p) - math.log1p(-1.5 / p) for p in primes
        )
        assert c.log_value == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize(
        "alpha, log_hex",
        [(1.0, "0x0.0p+0"), (1.5, "0x1.e7a1d5534afefp-2"), (2.7, "0x1.10a653fa6fc3dp-1")],
    )
    def test_average_order_constant_bits(self, alpha, log_hex):
        # pinned from the linear-domain product, which took math.log of the same factors
        assert average_order_constant(alpha, 50_000).log_value.hex() == log_hex


def test_sieve_memory_cap(monkeypatch, table_2k):
    monkeypatch.setenv(MEMORY_CAP_ENV, "1000")
    with pytest.raises(ResourceLimitError):
        sieve_primes(10_000)
    # the factoring kernel sizes its working arrays against the same cap
    with pytest.raises(ResourceLimitError):
        omega_sieve(2000, table_2k)
    with pytest.raises(ResourceLimitError):
        divisor_values(np.arange(1, 100), 1.5, table_2k)
    assert divisor_values([360], 2.0, table_2k).tolist() == [24.0]


def test_ratio_bounds_fractional_k():
    upper, lower = pseudomoment_ratio_bounds(1.5, 50_000)
    assert lower.log_value <= upper.log_value
    assert math.isfinite(upper.value) and upper.value > 0
    # integer orders telescope, so the Gamma factor alone sets the scale there
    assert pseudomoment_ratio_bounds(3.0, 1000)[0].value == pytest.approx(
        math.gamma(4) ** -3.0, rel=1e-12
    )
