"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Criteria with runtime limits assert them.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest
from oracle import random_dirichlet

from dirichlet_hardy.arith import pseudomoment_ratio_bounds, average_order_constant, divisor_weight_sum
from dirichlet_hardy.cli import main
from dirichlet_hardy.experiments import (
    FuzzConfig,
    hl_fuzz_suite,
    omega_concentration,
    partial_sum_witness,
    pseudomoment,
    pseudomoment_scan,
)
from dirichlet_hardy.norms import (
    DiscPolynomial,
    dilate,
    disc_norm,
    even_norm_exact,
    l2_norm,
    mc_norm,
    mc_norm_many,
)
from dirichlet_hardy.bounds import coeff_functional_exact


def _report(num, description, ok, detail=""):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {description} {detail}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_1_exact_oracle_equivalence(table_2k):
    start = time.monotonic()
    rng = np.random.default_rng(20240)
    good = 0
    for case in range(100):
        f = random_dirichlet(rng, 50, 1000)
        exact = {2.0: l2_norm(f).power_mean, 4.0: even_norm_exact(f, 2).power_mean}
        ests = mc_norm_many(f, [2.0, 4.0], 100_000, 51_000 + case, table_2k)
        good += all(abs(e.power_mean - exact[e.p]) <= 3 * e.std_error for e in ests)
    elapsed = time.monotonic() - start
    _report(
        1,
        "Monte Carlo at p=2,4 within 3 std errors of exact norms",
        good >= 97 and elapsed < 120,
        f"({good}/100 cases, {elapsed:.1f}s)",
    )


def test_criterion_2_pseudomoment_exactness():
    start = time.monotonic()
    ok = True
    details = []
    for N in (10, 10**3, 10**6):
        got = pseudomoment(N, 1, 1.0, "exact").value
        oracle = float(np.sum(1.0 / np.arange(1, N + 1)))
        rel = abs(got - oracle) / oracle
        ok &= rel <= 1e-12
        details.append(f"N={N} rel={rel:.1e}")
    ok &= pseudomoment(2, 2, 1.0, "exact").value == 3.25
    big = pseudomoment(10**4, 2, 1.0, "exact").value
    ok &= math.isfinite(big) and big > 0
    elapsed = time.monotonic() - start
    ok &= elapsed < 300
    _report(
        2,
        "first pseudomoment matches harmonic sums; fourth moment exact at N=2 and feasible at N=1e4",
        ok,
        f"({'; '.join(details)}; Psi_2(1e4)={big:.3f}; {elapsed:.1f}s)",
    )


def test_criterion_3_asymptotic_constants_k1():
    upper, lower = pseudomoment_ratio_bounds(1.0, 100_000)
    ratio = pseudomoment(10**6, 1, 1.0, "exact").value / math.log(10**6)
    ok = upper.value == 1.0 and lower.value < 1.0
    ok &= lower.value * 0.9 <= ratio <= 1.05
    _report(
        3,
        "k=1 upper constant exactly 1; finite-N ratio inside [0.9*lower, 1.05]",
        ok,
        f"(ratio={ratio:.5f}, lower={lower.value:.5f})",
    )


def test_criterion_4_growth_exponent():
    start = time.monotonic()
    grid = [100, 316, 1000, 3162, 10000]
    slope = pseudomoment_scan(2, 1.0, grid, "exact")[-1].value
    elapsed = time.monotonic() - start
    ok = 2.5 <= slope <= 5.0 and elapsed < 600
    _report(4, "fourth-moment growth exponent in [2.5, 5]", ok, f"(slope={slope:.3f}, {elapsed:.1f}s)")


def test_criterion_5_dilation_contractivity():
    pairs = [(1.0, 2.0), (2.0, 4.0), (0.5, 1.0)]
    rng = np.random.default_rng(555)
    contractive = True
    for _ in range(1000):
        deg = int(rng.integers(0, 9))
        f = DiscPolynomial(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        for p, q in pairs:
            r = math.sqrt(p / q)
            if disc_norm(dilate(f, r), q, 16384).value > disc_norm(f, p, 16384).value + 1e-8:
                contractive = False
    witness = DiscPolynomial(np.array([1.0, 0.1]))
    sharp = any(
        disc_norm(dilate(witness, math.sqrt(p / q) + 0.05), q, 16384).value
        > disc_norm(witness, p, 16384).value
        for p, q in pairs
    )
    _report(
        5,
        "dilation contractive at r=sqrt(p/q) on 1000 random polynomials; violated past it",
        contractive and sharp,
    )


def test_criterion_6_inequality_fuzz(tmp_path):
    out = tmp_path / "fuzz.json"
    code = main([
        "fuzz", "--corpus", "500", "--seed", "2024", "--samples", "20000",
        "--out", str(out),
    ])
    doc = json.loads(out.read_text())
    summary = doc["records"][-1]["extra"]["summary"]
    per_case = Counter(rec["params"]["case"] for rec in doc["records"][:-1])
    ok = code == 0 and summary["violation"] == 0 and per_case == dict.fromkeys(range(500), 14)
    _report(
        6,
        "no beyond-slack violations over the default corpus, 14 records per case; exit code 0",
        ok,
        f"(summary={summary})",
    )


def test_criterion_7_extremal_coefficient_functional():
    ok = True
    details = []
    for p in (0.25, 0.5, 0.75):
        c_target = coeff_functional_exact(p)
        c_expo = 2 / p
        a, b = math.sqrt(1 - p / 2), math.sqrt(p / 2)
        coefs, coef = [], 1.0
        for e in range(400):
            coefs.append(coef * a ** (c_expo - e) * b**e)
            coef *= (c_expo - e) / (e + 1)
        extremal = DiscPolynomial(np.array(coefs))
        norm = disc_norm(extremal, p, 8192).value
        deriv = abs(extremal.coefficients[1])
        ok &= abs(norm - 1.0) <= 1e-8
        ok &= abs(deriv - c_target) <= 1e-10
        details.append(f"p={p}: |norm-1|={abs(norm-1):.1e}")
        rng = np.random.default_rng(int(1000 * p))
        for _ in range(300):
            g = DiscPolynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            val = abs(g.coefficients[1]) / disc_norm(g, p, 4096).value
            ok &= val <= c_target * (1 + 1e-3)
    small_p = 1e-4
    limit_val = math.sqrt(small_p) * coeff_functional_exact(small_p)
    ok &= abs(limit_val - math.sqrt(2 / math.e)) <= 1e-3
    _report(
        7,
        "extremal has unit norm and derivative C(1,p); random search never beats it; small-p limit",
        ok,
        f"({'; '.join(details)})",
    )


def test_criterion_8_partial_sum_witness(table_2k):
    ok = True
    details = []
    for k in (1, 2, 3):
        rec = partial_sum_witness(0.5, k, 200_000, 88, table_2k)
        ok &= rec.extra["a_M_error"] <= 1e-10
        ok &= rec.value >= rec.normalizer - 3 * rec.std_error
        details.append(f"k={k}: max={rec.value:.4f} >= {rec.normalizer:.4f}")
    _report(8, "primorial witness clears the truncation lower bound", ok, f"({'; '.join(details)})")


def test_criterion_9_average_order(table_10m):
    start = time.monotonic()
    ok = True
    details = []
    for alpha in (1.5, 2.5):
        const = average_order_constant(alpha, 100_000)
        gaps = {}
        for x in (10**5, 10**7):
            mean = divisor_weight_sum(x, alpha, table_10m) / x
            predicted = const.value / math.gamma(alpha) * math.log(x) ** (alpha - 1)
            gaps[x] = abs(mean / predicted - 1)
        ok &= gaps[10**7] < 0.35 and gaps[10**7] < gaps[10**5]
        details.append(f"alpha={alpha}: gap(1e5)={gaps[10**5]:.4f} gap(1e7)={gaps[10**7]:.4f}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 180
    _report(9, "hybrid weight average order approaches its predicted constant", ok,
            f"({'; '.join(details)}; {elapsed:.1f}s)")


def test_criterion_10_concentration_histogram(table_1m):
    rec = omega_concentration(10**6, 2.0, table_1m)
    ok = rec.extra["mode"] in (2, 3) and rec.extra["total"] == 10**6
    _report(
        10,
        "prime-factor-count histogram peaks at m=2 or 3 and partitions x; outside mass reported",
        ok,
        f"(mode={rec.extra['mode']}, outside={rec.value:.0f}, bound={rec.normalizer:.1f})",
    )


def test_criterion_11_determinism(table_2k):
    rng = np.random.default_rng(99)
    f = random_dirichlet(rng, 50, 1000)
    runs = [mc_norm(f, 1.25, 80_000, 424242, table_2k, workers=w) for w in (1, 8)]
    ok = runs[0].value == runs[1].value and runs[0].std_error == runs[1].std_error
    recs = [
        partial_sum_witness(0.5, 2, 50_000, 31337, table_2k, workers=w) for w in (1, 8)
    ]
    ok &= recs[0].value == recs[1].value
    _report(11, "identical seed gives bit-identical values across 1 and 8 workers", ok)
