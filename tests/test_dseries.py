import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import bohr_lift, d_alpha, factor, prime_position

from dirichlet_hardy.arith import sieve_primes
from dirichlet_hardy.bounds import coeff_functional_exact
from dirichlet_hardy.dseries import (
    DirichletPolynomial,
    GeneratorSpec,
    dirichlet_multiply,
    dirichlet_power,
    duality_witness,
    euler_factor_power,
    extremal_product,
    fractional_primitive,
    generate,
    homogeneous_projection,
    partial_sum,
    smooth_truncation,
    zeta_partial,
    zeta_power_partial,
)
from dirichlet_hardy.errors import ResourceLimitError, SieveLimitError
from dirichlet_hardy.norms import DiscPolynomial, disc_norm, evaluate_at_sample, steinhaus_sample

_HYP_TABLE = sieve_primes(12000)  # covers products of two indices up to 100

sparse_polys = st.dictionaries(
    st.integers(min_value=1, max_value=100),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=8,
).map(DirichletPolynomial)


def is_smooth(n, bound):
    """Whether every prime factor of n is at most `bound`."""
    return all(p <= bound for p, _ in factor(n))


def lift_value(f, z):
    """sum a_n z^kappa(n) over the trial-division Bohr lift of f, at the prime values z."""
    lift = bohr_lift(f.coefficients)
    return sum(c * math.prod(z[j] ** e for j, e in enumerate(kappa)) for kappa, c in lift.items())


class TestPolynomial:
    def test_drops_zeros(self):
        f = DirichletPolynomial({1: 1.0, 2: 0.0, 5: 2j})
        assert f.support == (1, 5)
        assert f.length == 5
        assert f.coeff(2) == 0

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            DirichletPolynomial({0: 1.0})

    def test_zero_polynomial(self):
        z = DirichletPolynomial({})
        assert z.length == 0
        assert len(z) == 0

    def test_json_roundtrip_sorted(self):
        f = DirichletPolynomial({5: 1 + 2j, 2: -1.5})
        data = json.loads(f.to_json())
        assert [row[0] for row in data["coeffs"]] == [2, 5]
        assert DirichletPolynomial.from_json(f.to_json()) == f

    @pytest.mark.parametrize("text, entry", [
        ('{"coeffs": [[1, "1", 0]]}', '[1, "1", 0]'),
        ('{"coeffs": [[2, 1, 0], [1.5, 1, 0]]}', "[1.5, 1, 0]"),
        ('{"coeffs": [[true, 1, 0]]}', "[true, 1, 0]"),
        ('{"coeffs": [[1, 1]]}', "[1, 1]"),
        ('{"coeffs": [3]}', "3"),
        ('{"c": []}', None),
        ("[1, 2]", None),
        ('{"coeffs": {"1": [1, 0]}}', None),
        ('{"coeffs": [[1, 1, 0], [1, 2, 0]]}', "[1, 2, 0]"),
    ])
    def test_json_of_another_shape_is_refused(self, text, entry):
        # an entry is [index, re, im] with an int index that is no bool and real parts, and no
        # index comes twice; the error names the entry, or the expected shape when there is
        # no list of entries
        message = f"coefficient entry {re.escape(entry)} " if entry else '"coeffs" is a list'
        with pytest.raises(ValueError, match=message):
            DirichletPolynomial.from_json(text)


class TestGenerators:
    def test_zeta_partial(self):
        f = zeta_partial(3)
        assert f.coeff(1) == 1
        assert f.coeff(2) == pytest.approx(2**-0.5)
        assert f.coeff(3) == pytest.approx(3**-0.5)
        assert f.length == 3

    def test_zeta_power(self, table_2k):
        f = zeta_power_partial(4, 2.0, table_2k)
        assert f.coeff(2) == pytest.approx(2 * 2**-0.5)
        assert f.coeff(3) == pytest.approx(2 * 3**-0.5)
        assert f.coeff(4) == pytest.approx(3 * 4**-0.5)

    def test_euler_factor_power_support_and_values(self, table_2k):
        f = euler_factor_power(7, 1.0, 50, table_2k)
        for n in f.support:
            m = n
            for p in (2, 3, 5, 7):
                while m % p == 0:
                    m //= p
            assert m == 1, f"{n} is not 7-smooth"
        assert 11 not in f.support
        assert f.coeff(12) == pytest.approx(12**-0.5)
        g = euler_factor_power(7, 2.5, 50, table_2k)
        assert g.coeff(12) == pytest.approx(d_alpha(12, 2.5) * 12**-0.5)
        # every smooth n <= N appears, with d_alpha(n) n^(-1/2) to the bit
        for bound, alpha in ((2, 1.5), (13, 2.5), (97, 2 / 0.3), (2000, 4.0)):
            f = euler_factor_power(bound, alpha, 2000, table_2k)
            smooth = [n for n in range(1, 2001) if is_smooth(n, bound)]
            assert f.support == tuple(smooth)
            for n in smooth:
                assert f.coeff(n) == d_alpha(n, alpha) * n**-0.5

    def test_extremal_product_k1(self, table_2k):
        f, tail = extremal_product(0.5, 1, 2, table_2k)
        assert f.coeff(1) == pytest.approx((3 / 4) ** 2, rel=1e-14)
        assert f.coeff(2) == pytest.approx(2 * (3 / 4) ** 1.5, rel=1e-14)
        # dropped exponents 2..4 of the degree-4 factor
        a, b = math.sqrt(3 / 4), math.sqrt(1 / 4)
        expect_tail = sum(
            (math.comb(4, e) * a ** (4 - e) * b**e) ** 2 for e in (2, 3, 4)
        )
        assert tail == pytest.approx(expect_tail, rel=1e-12)

    def test_extremal_product_primorial_coefficient(self, table_2k):
        for k, M in ((1, 2), (2, 6), (3, 30)):
            f, _ = extremal_product(0.5, k, M, table_2k)
            assert f.coeff(M).real == pytest.approx(
                coeff_functional_exact(0.5) ** k, abs=1e-12
            )

    def test_extremal_product_matches_factor_convolution(self, table_2k):
        # the truncated product of the one-variable factors, one convolution per prime
        for p, k, N in ((0.25, 3, 30), (0.5, 4, 210), (0.7, 4, 1000), (1.0, 3, 500)):
            c, a, b = 2 / p, math.sqrt(1 - p / 2), math.sqrt(p / 2)
            expect = DirichletPolynomial({1: 1})
            for j in range(1, k + 1):
                one_prime, coef, e = {}, 1.0, 0
                while table_2k.prime(j) ** e <= N:
                    one_prime[table_2k.prime(j) ** e] = coef * a ** (c - e) * b**e
                    e += 1
                    coef *= (c - e + 1) / e
                expect = partial_sum(dirichlet_multiply(expect, DirichletPolynomial(one_prime)), N)
            f, _ = extremal_product(p, k, N, table_2k)
            assert f.support == expect.support
            for n in f.support:
                assert f.coeff(n) == pytest.approx(expect.coeff(n), rel=1e-14)

    def test_extremal_product_divergent_tail(self, table_2k):
        # 1 < p < 2: 2/p is fractional and b > a, so the dropped terms grow without bound
        for p in (1.01, 1.5, 1.99):
            f, tail = extremal_product(p, 2, 100, table_2k)
            assert tail == math.inf
            assert f.support == tuple(n for n in range(1, 101) if is_smooth(n, 3))
            assert all(math.isfinite(abs(c)) for c in f.coefficients.values())

    def test_generators_need_truncation_within_table(self, table_2k):
        # each generator factors its smooth indices with the kernel, so N must fit the table,
        # even where the output is small (7-smooth n <= 10^6: about a thousand indices)
        N = table_2k.limit + 1
        for build in (
            lambda: euler_factor_power(7, 1.5, 10**6, table_2k),
            lambda: euler_factor_power(1, 1.5, N, table_2k),
            lambda: duality_witness(0.5, 7, N, table_2k),
            lambda: extremal_product(0.5, 2, N, table_2k),
            lambda: zeta_power_partial(N, 1.5, table_2k),
            lambda: generate(GeneratorSpec(kind="zeta", N=N), table_2k),
        ):
            with pytest.raises(SieveLimitError):
                build()
        f = euler_factor_power(7, 1.5, table_2k.limit, table_2k)
        assert len(f) == sum(is_smooth(n, 7) for n in range(1, table_2k.limit + 1))

    def test_extremal_rejects_bad_p(self, table_2k):
        for p in (0.0, 2.0, 2.5, -1.0):
            with pytest.raises(ValueError):
                extremal_product(p, 1, 10, table_2k)

    def test_extremal_factor_norm_is_one(self, table_2k):
        # one factor, expanded far enough that the series tail is negligible
        for p in (0.25, 0.5, 0.75):
            c = 2 / p
            a, b = math.sqrt(1 - p / 2), math.sqrt(p / 2)
            coefs = []
            coef = 1.0
            for e in range(200):
                coefs.append(coef * a ** (c - e) * b**e)
                coef *= (c - e) / (e + 1)
            poly = DiscPolynomial(np.array(coefs))
            est = disc_norm(poly, p, 4096)
            assert est.value == pytest.approx(1.0, abs=1e-8)

    def test_fractional_primitive(self):
        f = fractional_primitive(1.0, 3)
        assert f.coeff(1) == 1
        assert f.coeff(2) == pytest.approx(2**-0.5 / math.log(2))
        assert f.coeff(3) == pytest.approx(3**-0.5 / math.log(3))

    def test_duality_witness_is_euler_power(self, table_2k):
        assert duality_witness(0.5, 20, 100, table_2k) == euler_factor_power(
            20, 4.0, 100, table_2k
        )

    def test_generate_dispatch(self, table_2k):
        assert generate(GeneratorSpec(kind="zeta", N=5), table_2k) == zeta_partial(5)
        with pytest.raises(ValueError):
            generate(GeneratorSpec(kind="nope", N=5), table_2k)
        with pytest.raises(ValueError):
            generate(GeneratorSpec(kind="zeta", N=5000), table_2k)
        with pytest.raises(ValueError):
            generate(GeneratorSpec(kind="zeta-power", N=5), table_2k)

    @pytest.mark.parametrize("p", [0.5, 1.0, 4 / 3, 3.0])
    def test_generate_fractional_primitive_and_duality_witness(self, p, table_2k):
        # each spec gives its builder's polynomial to the bit; the witness is the (2/p)-th power
        # of the Euler product over the primes up to prime_bound
        spec = GeneratorSpec(kind="fractional-primitive", N=300, beta=p)
        assert generate(spec, table_2k) == fractional_primitive(p, 300)
        spec = GeneratorSpec(kind="duality-witness", N=300, p=p, prime_bound=50)
        assert generate(spec, table_2k) == euler_factor_power(50, 2 / p, 300, table_2k)

    @pytest.mark.parametrize("kind, params, needs", [
        ("fractional-primitive", {"p": 0.5, "alpha": 1.0}, "beta"),
        ("duality-witness", {"prime_bound": 50}, "p and prime_bound"),
        ("duality-witness", {"p": 0.5, "beta": 1.0}, "p and prime_bound"),
    ])
    def test_generate_refuses_a_missing_parameter(self, kind, params, needs, table_2k):
        with pytest.raises(ValueError, match=f"^{kind} requires {needs}$"):
            generate(GeneratorSpec(kind=kind, N=300, **params), table_2k)

    @pytest.mark.parametrize("kind, params, unread", [
        ("zeta", {"alpha": 1.0}, "alpha"),
        ("zeta-power", {"alpha": 1.0, "p": 0.5, "beta": 1.0}, "p, beta"),
        ("euler-power", {"alpha": 1.0, "prime_bound": 7, "prime_count": 2}, "prime_count"),
        ("duality-witness", {"p": 0.5, "prime_bound": 50, "alpha": 1.0}, "alpha"),
    ])
    def test_generate_refuses_a_field_its_kind_does_not_read(self, kind, params, unread, table_2k):
        with pytest.raises(ValueError, match=f"^{kind} does not read {unread}$"):
            generate(GeneratorSpec(kind=kind, N=300, **params), table_2k)


class TestConvolution:
    def test_square(self):
        f = DirichletPolynomial({1: 1, 2: 1})
        assert dirichlet_multiply(f, f) == DirichletPolynomial({1: 1, 2: 2, 4: 1})

    def test_identity(self):
        f = DirichletPolynomial({3: 2j, 7: -1})
        one = DirichletPolynomial({1: 1})
        assert dirichlet_multiply(f, one) == f

    def test_zeta_square(self):
        z2 = zeta_partial(2)
        sq = dirichlet_multiply(z2, z2)
        assert sq.coeff(2) == pytest.approx(2 * 2**-0.5)
        assert sq.coeff(4) == pytest.approx(0.5)

    def test_power(self):
        f = DirichletPolynomial({1: 1, 2: 1})
        assert dirichlet_power(f, 1) == f
        assert dirichlet_power(f, 2) == dirichlet_multiply(f, f)
        assert dirichlet_power(f, 5) == dirichlet_multiply(
            dirichlet_power(f, 4), f
        )

    def test_memory_cap(self, monkeypatch, table_2k):
        monkeypatch.setenv("DIRICHLET_HARDY_MEMORY_CAP", "10000")
        f = zeta_partial(500)
        with pytest.raises(ResourceLimitError):
            dirichlet_multiply(f, f)

    def test_memory_cap_counts_kept_products(self, monkeypatch):
        # a cap that holds the output support but not the products kept for the fsums
        f = zeta_partial(60)
        support = len(dirichlet_multiply(f, f))
        monkeypatch.setenv("DIRICHLET_HARDY_MEMORY_CAP", str(150 * support + 100))
        with pytest.raises(ResourceLimitError):
            dirichlet_multiply(f, f)

    @given(sparse_polys, sparse_polys)
    @example(  # summing in dict order gave 8.590823905140155 one way and ...153 the other at n = 2300
        DirichletPolynomial({25: 0.8221025812564573, 23: 1.1217888694889773, 92: 4.5}),
        DirichletPolynomial({25: 0.8221025812564573, 92: 4.5, 100: 1.0625}),
    )
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, f, g):
        assert dirichlet_multiply(f, g) == dirichlet_multiply(g, f)


class TestOperators:
    def test_partial_sum(self):
        f = DirichletPolynomial({1: 1, 2: 2, 4: 1})
        assert partial_sum(f, 2) == DirichletPolynomial({1: 1, 2: 2})
        assert partial_sum(f, 10) == f
        assert partial_sum(zeta_partial(3), 1) == DirichletPolynomial({1: 1})

    @given(sparse_polys, st.integers(min_value=1, max_value=120))
    @settings(max_examples=40, deadline=None)
    def test_partial_sum_idempotent_linear(self, f, N):
        once = partial_sum(f, N)
        assert partial_sum(once, N) == once
        g = DirichletPolynomial({n: 2 * c for n, c in f.coefficients.items()})
        lhs = partial_sum(DirichletPolynomial(
            {n: f.coeff(n) + g.coeff(n) for n in set(f.support) | set(g.support)}
        ), N)
        rhs_map = {n: once.coeff(n) + partial_sum(g, N).coeff(n)
                   for n in set(once.support) | set(partial_sum(g, N).support)}
        assert lhs == DirichletPolynomial(rhs_map)

    def test_homogeneous_projection(self, table_2k):
        f = DirichletPolynomial({1: 1, 2: 1, 6: 1})
        assert homogeneous_projection(f, 1, table_2k) == DirichletPolynomial({2: 1})
        assert homogeneous_projection(f, 2, table_2k) == DirichletPolynomial({6: 1})
        assert homogeneous_projection(f, 0, table_2k) == DirichletPolynomial({1: 1})

    def test_projection_partition(self, table_2k):
        f = DirichletPolynomial({n: complex(n, -n) for n in range(1, 65)})
        total = {}
        for m in range(8):
            for n, c in homogeneous_projection(f, m, table_2k).coefficients.items():
                total[n] = total.get(n, 0) + c
        assert DirichletPolynomial(total) == f

    def test_smooth_truncation(self, table_2k):
        f = DirichletPolynomial({1: 1, 2: 1, 3: 1, 4: 1})
        assert smooth_truncation(f, 1, table_2k) == DirichletPolynomial({1: 1, 2: 1, 4: 1})
        assert smooth_truncation(f, 2, table_2k) == f
        assert smooth_truncation(DirichletPolynomial({3: 1}), 1, table_2k) == (
            DirichletPolynomial({})
        )

    def test_smooth_truncation_matches_trial_division(self, table_2k):
        f = DirichletPolynomial({n: complex(n, 1) for n in range(1, table_2k.limit + 1)})
        for m in (1, 2, 5, 25, 303, table_2k.prime_count, 10**6):
            keep = [n for n in f.support if all(prime_position(p) < m for p, _ in factor(n))]
            assert smooth_truncation(f, m, table_2k) == DirichletPolynomial({n: f.coeff(n) for n in keep})

    def test_smooth_truncation_composition(self, table_2k):
        f = DirichletPolynomial({n: 1.0 for n in range(1, 100)})
        a = smooth_truncation(smooth_truncation(f, 4, table_2k), 2, table_2k)
        b = smooth_truncation(smooth_truncation(f, 2, table_2k), 4, table_2k)
        assert a == b == smooth_truncation(f, 2, table_2k)


class TestBohrLift:
    # the engine's lift (norms, through evaluate_at_sample) against the trial-division lift
    def test_examples(self, table_2k):
        assert bohr_lift({12: 3j}) == {(2, 1): 3j}
        assert bohr_lift({1: 2.0}) == {(): 2.0}
        s = steinhaus_sample(1, 0, 2)
        z = s.values
        assert evaluate_at_sample(DirichletPolynomial({12: 3j}), s, table_2k) == pytest.approx(
            3j * z[0] ** 2 * z[1], rel=1e-15
        )
        assert evaluate_at_sample(DirichletPolynomial({1: 2.0}), steinhaus_sample(1, 0, 0), table_2k) == 2

    def test_zeta_three(self, table_2k):
        f = zeta_partial(3)
        assert list(bohr_lift(f.coefficients)) == [(), (1,), (0, 1)]
        s = steinhaus_sample(2, 5, 2)
        assert evaluate_at_sample(f, s, table_2k) == pytest.approx(lift_value(f, s.values), rel=1e-15)

    @given(sparse_polys)
    @settings(max_examples=40, deadline=None)
    def test_engine_lift_matches_oracle(self, f):
        s = steinhaus_sample(3, 7, 25)  # the 25 primes up to 100
        expect = lift_value(f, s.values)
        assert evaluate_at_sample(f, s, _HYP_TABLE) == pytest.approx(expect, rel=1e-12, abs=1e-12)

    @given(sparse_polys, sparse_polys)
    @settings(max_examples=30, deadline=None)
    def test_lift_respects_convolution(self, f, g):
        direct = bohr_lift(dirichlet_multiply(f, g).coefficients)
        lifted = {}
        for kf, cf in bohr_lift(f.coefficients).items():
            for kg, cg in bohr_lift(g.coefficients).items():
                width = max(len(kf), len(kg))
                ka = tuple(
                    (kf[i] if i < len(kf) else 0) + (kg[i] if i < len(kg) else 0)
                    for i in range(width)
                )
                lifted[ka] = lifted.get(ka, 0j) + cf * cg
        lifted = {k: v for k, v in lifted.items() if v != 0}
        assert set(lifted) == set(direct)
        for k in direct:
            assert lifted[k] == pytest.approx(direct[k])


class TestOperatorIdempotence:
    def test_projection_idempotent(self, table_2k):
        f = DirichletPolynomial({n: complex(n) for n in range(1, 40)})
        for m in range(4):
            pm = homogeneous_projection(f, m, table_2k)
            assert homogeneous_projection(pm, m, table_2k) == pm

    def test_smooth_truncation_idempotent(self, table_2k):
        f = DirichletPolynomial({n: complex(n) for n in range(1, 40)})
        for m in (1, 2, 5):
            am = smooth_truncation(f, m, table_2k)
            assert smooth_truncation(am, m, table_2k) == am
