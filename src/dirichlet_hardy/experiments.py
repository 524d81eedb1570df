"""Desk-scale studies: pseudomoments, partial-sum probes, coefficient scans, and fuzzing.

The pseudomoment of order k at truncation N is the 2k-th power of the 2k-th
quasi-norm of the d_alpha-weighted partial sum sum_{n<=N} d_alpha(n) n^(-1/2-s),
which is Z_N at alpha = 1. Exact evaluation uses the l2 route at k=1 for every
alpha, a coprime-parametrization identity at (k=2, alpha=1) that avoids
materializing the convolution square, and sparse convolution otherwise. Monte
Carlo covers non-integer k; a scan lifts its largest Z_N once and evaluates the
smaller ones, its partial sums, on those nodes in the same pass.

The fuzz suite checks the inequalities of `bounds` (`hl_comparisons`, the divisor chain
included) on two kinds of random polynomial, and `bounds.judge` gives every verdict. A
disc polynomial g(z) = sum g_j z^j is the Dirichlet polynomial sum g_j 2^(-js) on the one
prime 2, whose H^p norm is g's disc norm, so its checks are the same Hardy-Littlewood
checks against a quadrature norm in place of a Monte Carlo one. A case's polynomials
come from the splitmix64 stream of (seed, case) (`_CaseDraws`, on the engine's
`_sample_keys`), so they depend on nothing else, numpy's Generator included.

Each entry is one `dhardy` subcommand's whole computation: it picks the route,
sieves one prime table when given none (its largest limit, and at least 1000;
`_sieved` is the one rule that sizes a table), passes that table to every route
and Euler product it runs, and returns finished records, the closing
'scan-slope' and 'fuzz-summary' ones included. Every record echoes its full
parameter set, including seeds, so any run can be replayed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .arith import (
    PrimeTable,
    divisor_values,
    multiplicative,
    omega_class_counts,
    pseudomoment_leading_factor,
    pseudomoment_ratio_bounds,
    sieve_primes,
)
from .bounds import (
    HL_INEQUALITIES,
    INEQUALITIES,
    coeff_functional_exact,
    coeff_functional_prime_power,
    comparison_exponents,
    hl_comparisons,
    hl_report,
    judge,
)
from .dseries import (
    DirichletPolynomial,
    GeneratorSpec,
    extremal_product,
    generate,
    homogeneous_projection,
    partial_sum,
    zeta_power_partial,
)
from .errors import ResourceLimitError, SieveLimitError, memory_cap_bytes
from .norms import (
    DiscPolynomial,
    _mix64,
    _sample_keys,
    disc_norm_many,
    even_norm_exact,
    l2_norm,
    mc_norm,
    mc_norm_many,
)


@dataclass(frozen=True)
class ExperimentRecord:
    """One row of a scan: parameters, value, normalizing asymptotic, and their ratio."""

    experiment: str
    params: dict
    value: float
    normalizer: float
    ratio: float
    std_error: float | None = None
    extra: dict = field(default_factory=dict)


def _ratio(value: float, normalizer: float) -> float:
    return value / normalizer if normalizer > 0 else math.nan


def _sieved(table: PrimeTable | None, limit: int, what: str) -> PrimeTable:
    """`table`, checked to cover `limit` (named by `what`), or a sieve of the limit and at least 1000;
    a sieve takes at least a byte per index, so a limit past the memory cap is refused unsieved."""
    if table is not None:
        if limit > table.limit:
            raise SieveLimitError(f"{what} exceeds sieve limit {table.limit}")
        return table
    if limit > memory_cap_bytes():
        raise ResourceLimitError(f"{what} is beyond any sieve under the cap", memory_cap_bytes())
    return sieve_primes(max(limit, 1000))


def _polynomial(
    f: DirichletPolynomial | GeneratorSpec, table: PrimeTable | None
) -> tuple[DirichletPolynomial, PrimeTable]:
    """`f`, or the polynomial its spec generates, with a prime table that covers it."""
    if isinstance(f, GeneratorSpec):
        table = _sieved(table, f.N, f"truncation {f.N}")
        return generate(f, table), table
    return f, _sieved(table, f.length, f"length {f.length}")


def hardy_norm(
    f: DirichletPolynomial | GeneratorSpec, p: float, method: str = "auto", samples: int = 20000,
    seed: int | None = None, table: PrimeTable | None = None, workers: int = 1, report: bool = False,
) -> ExperimentRecord:
    """The H^p quasi-norm of `f`, a polynomial or the spec of a generated one.

    method 'auto' takes the exact l2 route at p = 2, the exact even route at p = 2k and
    Monte Carlo ('mc') otherwise; a route that does not fit p is a ValueError. `report`
    attaches the weighted-inequality report of `hl_report`.
    """
    even = float(p / 2).is_integer()
    if method == "auto":
        method = "l2" if p == 2.0 else "even" if even else "mc"
    if method == "l2" and p != 2.0:
        raise ValueError("--method l2 requires --p 2")
    if method == "even" and not even:
        raise ValueError("--method even requires p = 2k for integer k")
    if method not in ("l2", "even", "mc"):
        raise ValueError(f"unknown method {method!r}")
    poly, table = _polynomial(f, table)
    if method == "l2":
        est = l2_norm(poly)
    elif method == "even":
        est = even_norm_exact(poly, int(p / 2))
    else:
        est = mc_norm(poly, p, samples, seed, table, workers)
    extra = {"length": poly.length, "support_size": len(poly)}
    if report:
        extra["hl_report"] = hl_report(poly, p, est, table)
    kind, N = (f.kind, f.N) if isinstance(f, GeneratorSpec) else (None, None)
    params = {"p": p, "method": est.method, "samples": est.samples, "seed": est.seed,
              "generator": kind, "N": N}
    std_error = est.std_error if est.method == "monte_carlo" else None
    return ExperimentRecord(experiment="norm", params=params, value=est.value, normalizer=1.0,
                            ratio=est.value, std_error=std_error, extra=extra)


def _pair_correlation_moment(N: int, table: PrimeTable) -> float:
    """Exact fourth pseudomoment of Z_N via the coprime parametrization of ab = cd.

    Solutions of ab = cd with all four factors at most N biject with
    (g, h, u, v), gcd(u, v) = 1, via a = gu, b = hv, c = gv, d = hu; summing
    1/(ghuv) gives sum_m H(floor(N/m))^2 W(m) where m = max(u, v) and
    W(m) = (2/m) sum_{d | m} mu(d)/d * H(floor(m/d)) for m >= 2, W(1) = 1.
    """
    H = np.zeros(N + 1)
    H[1:] = np.cumsum(1.0 / np.arange(1, N + 1))
    mu = np.zeros(N + 1, dtype=np.int64)
    mu[1:] = multiplicative(np.arange(1, N + 1), table, lambda e: -1 if e == 1 else 0)
    # T[m] = sum over v <= m coprime to m of 1/v, by Moebius over common divisors
    T = np.zeros(N + 1)
    for d in range(1, N + 1):
        if mu[d]:
            mult = np.arange(d, N + 1, d)
            T[mult] += (mu[d] / d) * H[mult // d]
    W = (2.0 / np.arange(1, N + 1)) * T[1:]
    W[0] = 1.0
    ms = np.arange(1, N + 1)
    return float(np.sum(H[N // ms] ** 2 * W))


def _exact_pseudomoment(N: int, k: int, alpha: float, table: PrimeTable) -> tuple[float, str]:
    """Psi_{k,alpha}(N) by the cheapest exact route; returns (value, algorithm tag)."""
    if k == 1:  # d_1 is exactly 1.0, so at alpha = 1 this is the harmonic number H_N
        d = divisor_values(np.arange(1, N + 1), alpha, table)
        return math.fsum(d * d / np.arange(1, N + 1)), "l2"
    if k == 2 and alpha == 1.0:
        return _pair_correlation_moment(N, table), "pair-correlation"
    return even_norm_exact(zeta_power_partial(N, alpha, table), k).power_mean, "convolution"


def _pseudomoments(grid: Sequence[int], k: float, alpha: float, method: str, table: PrimeTable | None,
                   samples: int | None, seed: int | None, workers: int) -> list[ExperimentRecord]:
    """`pseudomoment` at each N of the increasing `grid`, from one table sieved from the largest N
    when not given. The exact routes run per N; Monte Carlo lifts Z_{N_max,alpha} once and
    evaluates each smaller Z_{N,alpha}, its partial sum, on those nodes in the same pass, so
    every point has the bits of a run of its own at `seed`."""
    if grid[0] < 1:
        raise ValueError(f"N must be >= 1, got {grid[0]}")
    if not 0 < k < math.inf:
        raise ValueError(f"k must be positive and finite, got {k}")
    if not 1 <= alpha < math.inf:
        raise ValueError(f"alpha must be >= 1 and finite, got {alpha}")
    if method not in ("exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" and int(k) != k:
        raise ValueError(f"exact pseudomoments need integer k, got {k}")
    if method == "mc" and (samples is None or seed is None):
        raise ValueError("mc route requires samples and seed")
    table = _sieved(table, grid[-1], f"N={grid[-1]}")
    params = {"k": k, "alpha": alpha, "method": method}
    if method == "exact":
        points = [(value, None, {"algorithm": algorithm})
                  for value, algorithm in (_exact_pseudomoment(N, int(k), alpha, table) for N in grid)]
    else:
        params.update({"samples": samples, "seed": seed})
        Z = zeta_power_partial(grid[-1], alpha, table)
        top, *rest = mc_norm_many(Z, [2 * k], samples, seed, table, workers,
                                  [partial_sum(Z, N) for N in grid[:-1]])
        points = [(est.power_mean, est.std_error, {}) for est in (*rest, top)]
    records = []
    for N, (value, std_error, extra) in zip(grid, points):
        try:
            normalizer = math.log(N) ** (k * k * alpha * alpha) if N > 1 else 0.0
        except OverflowError:  # large k: past the float range, so the ratio is value / inf
            normalizer = math.inf
        records.append(ExperimentRecord(
            experiment="pseudomoment", params={"N": N, **params}, value=value, normalizer=normalizer,
            ratio=_ratio(value, normalizer), std_error=std_error, extra=extra,
        ))
    return records


def pseudomoment(
    N: int,
    k: float,
    alpha: float = 1.0,
    method: str = "exact",
    table: PrimeTable | None = None,
    samples: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> ExperimentRecord:
    """Psi_{k,alpha}(N) with normalizer (log N)^(k^2 alpha^2), inf where that overflows.

    method 'exact' requires integer k: the l2 route at k = 1, the coprime
    parametrization at (k = 2, alpha = 1) and the convolution power of
    Z_N's d_alpha-weighted variant otherwise; 'mc' requires samples and seed.
    Every route reads one prime table, sieved from N when not given; a table
    that is given must cover N.
    """
    return _pseudomoments([N], k, alpha, method, table, samples, seed, workers)[0]


def pseudomoment_scan(
    k: float,
    alpha: float,
    N_grid: Sequence[int],
    method: str = "exact",
    table: PrimeTable | None = None,
    samples: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> list[ExperimentRecord]:
    """Pseudomoments over an increasing truncation grid, closed by their growth exponent.

    One table, sieved from the largest grid point when not given, serves every
    point, and Monte Carlo is one pass over the largest truncation: point i is
    `pseudomoment(N_i, ...)` at the same seed, bit for bit. The last record, 'scan-slope',
    holds the least-squares slope of log Psi against log log N; for k > 1/2 it
    estimates (k alpha)^2 at scale.
    """
    grid = [int(N) for N in N_grid]
    if len(grid) < 4:
        raise ValueError(f"need at least 4 grid points, got {len(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if grid[0] < 3:
        raise ValueError("grid points must be >= 3 so that log log N is positive")
    records = _pseudomoments(grid, k, alpha, method, table, samples, seed, workers)
    x = np.log(np.log(np.array(grid, dtype=float)))
    y = np.log(np.array([r.value for r in records]))
    slope = float(np.polyfit(x, y, 1)[0])
    exponent = (k * alpha) ** 2
    records.append(ExperimentRecord(
        experiment="scan-slope",
        params={"k": k, "alpha": alpha, "method": method, "grid": ",".join(map(str, grid)), "seed": seed},
        value=slope, normalizer=exponent, ratio=slope / exponent, extra={"regressor": "log log N"},
    ))
    return records


def pseudomoment_window_check(
    k: float,
    N: int,
    table: PrimeTable | None = None,
    prime_limit: int = 100_000,
    samples: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> ExperimentRecord:
    """Compare Psi_k(N)/(log N)^(k^2) against the asymptotic constants.

    The constants bound the limit, not finite-N ratios; only an
    order-of-magnitude escape (outside [lower/10, upper*10]) is flagged. Given
    no table, it sieves one that covers both N and prime_limit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if table is None:
        table = _sieved(None, max(N, prime_limit), f"N={N} or prime_limit={prime_limit}")
    method = "exact" if float(k).is_integer() else "mc"
    rec = pseudomoment(N, k, 1.0, method, table, samples=samples, seed=seed, workers=workers)
    upper, lower = pseudomoment_ratio_bounds(k, prime_limit, table=table)
    # compared in logs: at large k the constants and the normalizer pass the float range
    log_ratio = math.log(rec.value) - k * k * math.log(math.log(N)) if N > 1 else math.nan
    flagged = not (lower.log_value - math.log(10) <= log_ratio <= upper.log_value + math.log(10))
    extra = {
        "upper_constant": upper.value,
        "lower_constant": lower.value,
        "upper_log": upper.log_value,
        "lower_log": lower.log_value,
        "tail_bound": max(upper.tail_bound, lower.tail_bound),
        "flagged": flagged,
        "note": "constants are asymptotic limits, not finite-N brackets",
    }
    params = dict(rec.params)
    params["prime_limit"] = prime_limit
    return ExperimentRecord(
        experiment="pseudomoment-window",
        params=params,
        value=rec.value,
        normalizer=rec.normalizer,
        ratio=rec.ratio,
        std_error=rec.std_error,
        extra=extra,
    )


def pseudomoment_constants(
    k: float, prime_limit: int = 100_000, leading_factor: bool = False, seed: int | None = None
) -> list[ExperimentRecord]:
    """The constants of `pseudomoment_ratio_bounds` and their ratio; with `leading_factor`, also
    `pseudomoment_leading_factor` (integer k only), both over one table of prime_limit. `seed` is
    only echoed in the params."""
    table = _sieved(None, prime_limit, f"prime_limit={prime_limit}")
    upper, lower = pseudomoment_ratio_bounds(k, prime_limit, table)
    params = {"k": k, "prime_limit": prime_limit, "seed": seed}
    try:  # from k = 11 the lower constant underflows, but the ratio may be a finite double
        ratio = upper.value / lower.value if lower.value else math.exp(upper.log_value - lower.log_value)
    except OverflowError:
        ratio = math.inf
    records = [ExperimentRecord(
        experiment="euler-const", params=params, value=upper.value, normalizer=lower.value, ratio=ratio,
        extra={"upper_log": upper.log_value, "lower_log": lower.log_value,
               "tail_bound_upper": upper.tail_bound, "tail_bound_lower": lower.tail_bound},
    )]
    if leading_factor:
        ak = pseudomoment_leading_factor(k, prime_limit, table)
        records.append(ExperimentRecord(
            experiment="leading-factor", params=params, value=ak.value, normalizer=1.0, ratio=ak.value,
            extra={"log_value": ak.log_value, "tail_bound": ak.tail_bound},
        ))
    return records


def partial_sum_witness(
    p: float,
    k: int,
    samples: int,
    seed: int,
    table: PrimeTable | None = None,
    workers: int = 1,
) -> ExperimentRecord:
    """The primorial witness for the partial-sum operator at exponent p in (0, 1).

    Builds the unit-norm product f over the first k primes, truncated at the
    primorial M. Its coefficient at M is C(1,p)^k exactly, so by the p-triangle
    inequality max(|S_{M-1} f|_p^p, |S_M f|_p^p) >= C(1,p)^(pk) / 2; both
    truncation norms are estimated from one sample stream. Given no table, it
    sieves 1000 for the first primes, and M itself only when that table does not
    cover M; a primorial beyond any sieve the memory cap allows is a
    ResourceLimitError, and one beyond a given table a SieveLimitError.
    """
    if not 0 < p < 1:
        raise ValueError(f"witness requires 0 < p < 1, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # the given table, or a sieve of 1000: a table's primes multiply past its limit, and
    # the 168 below 1000 past any memory cap
    first = _sieved(table, 1, "the first primes")
    M = math.prod(first.primes[:k].tolist())
    table = first if M <= first.limit else _sieved(table, M, f"the primorial of the first {k} primes")
    f_M, tail_l2 = extremal_product(p, k, M, table)
    a_M = f_M.coeff(M)
    a_target = coeff_functional_exact(p) ** k
    s_less = partial_sum(f_M, M - 1)
    est_full, est_less = mc_norm_many(f_M, [p], samples, seed, table, workers, [s_less])
    value = max(est_full.power_mean, est_less.power_mean)
    which = est_full if est_full.power_mean >= est_less.power_mean else est_less
    lower_bound = coeff_functional_exact(p) ** (p * k) / 2
    return ExperimentRecord(
        experiment="partial-sum-witness",
        params={"p": p, "k": k, "N": M, "samples": samples, "seed": seed},
        value=value,
        normalizer=lower_bound,
        ratio=_ratio(value, lower_bound),
        std_error=which.std_error,
        extra={
            "a_M": a_M.real,
            "a_M_target": a_target,
            "a_M_error": abs(a_M - a_target),
            "tail_l2": tail_l2,
            "norm_pp_at_M": est_full.power_mean,
            "norm_pp_before_M": est_less.power_mean,
            "se_at_M": est_full.std_error,
            "se_before_M": est_less.std_error,
            "bound_ok": judge(lower_bound, value, which)[0] != "violation",
        },
    )


def partial_sum_ratio_probe(
    f: DirichletPolynomial | GeneratorSpec,
    N: int,
    p: float,
    samples: int,
    seed: int,
    table: PrimeTable | None = None,
    workers: int = 1,
) -> ExperimentRecord:
    """Monte Carlo ratio |S_N f|_p / |f|_p with a propagated relative error (f may be a spec)."""
    f, table = _polynomial(f, table)
    est_f, est_s = mc_norm_many(f, [p], samples, seed, table, workers, [partial_sum(f, N)])
    if est_f.value == 0:
        raise ValueError("cannot form a ratio: the denominator norm vanished")
    ratio = est_s.value / est_f.value
    rel = math.hypot(
        est_s.value_std_error / est_s.value if est_s.value else 0.0,
        est_f.value_std_error / est_f.value,
    )
    return ExperimentRecord(
        experiment="partial-sum-ratio",
        params={"N": N, "p": p, "samples": samples, "seed": seed, "length": f.length},
        value=est_s.value,
        normalizer=est_f.value,
        ratio=ratio,
        std_error=ratio * rel,
        extra={"ratio_rel_error": rel},
    )


def maximal_order_scan(X: int, p: float, table: PrimeTable | None = None) -> ExperimentRecord:
    """max over 2 <= n <= X of log C(n, p) / (log n / log log n), with the attaining n.

    C(n, p) is the multiplicative coefficient-functional bound. The square-free
    maximal order is log C(1, p); primorials realize it, so the scan maximum
    must dominate the primorial values within range.
    """
    if X < 16:
        raise ValueError(f"X must be >= 16, got {X}")
    if not 0 < p < 1:
        raise ValueError(f"scan requires 0 < p < 1, got {p}")
    table = _sieved(table, X, f"X={X}")
    log_c1 = math.log(coeff_functional_exact(p))
    log_cnp = multiplicative(
        np.arange(2, X + 1), table, lambda e: math.log(coeff_functional_prime_power(e, p)), np.add
    )
    best, best_n = -math.inf, 0
    for n, log_c in enumerate(log_cnp.tolist(), start=2):
        denom = math.log(n) / math.log(math.log(n))
        val = log_c / denom
        if val > best:
            best, best_n = val, n
    # primorial reference values
    primorial_best = -math.inf
    M, j = 1, 0
    while True:
        j += 1
        M *= table.prime(j)
        if M > X:
            break
        denom = math.log(M) / math.log(math.log(M))
        primorial_best = max(primorial_best, j * log_c1 / denom)
    if best < primorial_best - 1e-12:
        raise AssertionError("scan maximum fell below its primorial floor")
    return ExperimentRecord(
        experiment="maximal-order",
        params={"X": X, "p": p},
        value=best,
        normalizer=log_c1,
        ratio=_ratio(best, log_c1),
        extra={"argmax_n": best_n, "squarefree_log": log_c1, "primorial_floor": primorial_best},
    )


def omega_concentration(x: int, C: float, table: PrimeTable | None = None) -> ExperimentRecord:
    """The prime-factor-count histogram and the mass outside the concentration window.

    The window is log log x +- C sqrt(log log x * log log log x); the outside
    mass is compared to x / (log log x)^8. Exploratory: the concentration is
    asymptotic, so no pass/fail verdict is attached.
    """
    if x < 16:
        raise ValueError(f"x must be >= 16 so the triple logarithm is positive, got {x}")
    if not 0 < C < math.inf:
        raise ValueError(f"C must be positive and finite, got {C}")
    counts = omega_class_counts(x, _sieved(table, x, f"x={x}"))
    ll = math.log(math.log(x))
    half_width = C * math.sqrt(ll * math.log(ll))
    lo, hi = ll - half_width, ll + half_width
    ms = np.arange(counts.size)
    outside = int(counts[(ms < lo) | (ms > hi)].sum())
    normalizer = x / ll**8
    mode = int(counts.argmax())
    return ExperimentRecord(
        experiment="omega-concentration",
        params={"x": x, "C": C},
        value=float(outside),
        normalizer=normalizer,
        ratio=_ratio(float(outside), normalizer),
        extra={
            "histogram": [[int(m), int(c)] for m, c in enumerate(counts)],
            "window": [lo, hi],
            "mode": mode,
            "total": int(counts.sum()),
            "loglog_x": ll,
        },
    )


def homogeneous_energy(
    N: int,
    alpha: float,
    p: float,
    samples: int,
    seed: int,
    table: PrimeTable | None = None,
    workers: int = 1,
) -> list[ExperimentRecord]:
    """Energy of the homogeneous layers of the dyadic block D = sum_{N/2 < n <= N} d_alpha(n) alpha^(-Omega(n)) n^(-1/2-s).

    One record per layer m = Omega(n): the Monte Carlo p-quasi-norm of the
    projection, alongside the projection bound sqrt(e) (m+1)^(1/p-1) |D|_p
    valid for p < 1. The layers reconstruct D exactly (coefficient equality).
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    table = _sieved(table, N, f"N={N}")
    ns = np.arange(N // 2 + 1, N + 1)
    d = divisor_values(ns, alpha, table).tolist()
    big_omega = multiplicative(ns, table, lambda e: e, np.add).tolist()
    D = DirichletPolynomial(
        {n: dn * alpha**-om * n**-0.5 for n, dn, om in zip(ns.tolist(), d, big_omega)}
    )
    layers = [homogeneous_projection(D, m, table) for m in range(max(big_omega) + 1)]
    est_D, *layer_ests = mc_norm_many(D, [p], samples, seed, table, workers, layers)
    records = []
    reconstructed: dict[int, complex] = {}
    for m, (Pm, est) in enumerate(zip(layers, layer_ests)):
        for n, c in Pm.coefficients.items():
            reconstructed[n] = reconstructed.get(n, 0j) + c
        bound = (math.sqrt(math.e) * (m + 1) ** (1 / p - 1) if p < 1 else 1.0) * est_D.value
        records.append(
            ExperimentRecord(
                experiment="homogeneous-energy",
                params={"N": N, "alpha": alpha, "p": p, "m": m, "samples": samples, "seed": seed},
                value=est.value,
                normalizer=est_D.value,
                ratio=_ratio(est.value, est_D.value),
                std_error=est.std_error,
                extra={"projection_bound": bound, "layer_size": len(Pm.coefficients)},
            )
        )
    if DirichletPolynomial(reconstructed) != D:
        raise AssertionError("homogeneous layers failed to reconstruct the block")
    return records


# ---------------------------------------------------------------------------
# fuzzing harness


# each disc check is a Hardy-Littlewood check on the lift of g to the prime 2
DISC_INEQUALITIES = {"disc-upper": "hl-upper", "disc-lower": "hl-lower"}


@dataclass(frozen=True)
class FuzzConfig:
    """Corpus and inequality selection for the fuzz suite."""

    inequalities: tuple[str, ...] = (*DISC_INEQUALITIES, *INEQUALITIES)
    p_values: tuple[float, ...] = (0.5, 1.0, 4 / 3, 3.0, 5.0)
    corpus: int = 500
    max_support: int = 64
    max_index: int = 1000
    max_degree: int = 8
    samples: int = 20000
    nodes: int = 16384
    seed: int = 0
    invert: bool = False  # self-test mode: flip every comparison
    workers: int = 1

    @classmethod
    def hl_check(cls, p: float, **corpus) -> FuzzConfig:
        """`hl-check`'s corpus: the weighted inequalities of `hl_report` at the one exponent p."""
        return cls(inequalities=HL_INEQUALITIES, p_values=(p,), **corpus)


# the fuzz corpus's splitmix64 increment: odd, and apart from the Monte Carlo stream's two
_GAMMA_CASE = 0xDB4F0B9175AE2165


class _CaseDraws:
    """The random draws of one fuzz case: splitmix64 hashes of (seed, case), taken in turn.

    Hash t is `_sample_keys`' key of sample t under the case key, the finalizer of the seed
    (mod 2^64) plus (case + 1) times the corpus's own increment, mod 2^64; so a case's draws
    depend only on (seed, case), in a key domain apart from the Monte Carlo stream's. An
    integer uniform on 0..m-1 is the multiply-shift (h m) >> 64 of one hash, and a standard
    complex normal is Box-Muller on a pair of hashes with the scalar functions of `math`,
    whose bits depend on the platform's libm alone, not on numpy's SIMD dispatch or its
    Generator's stream.
    """

    def __init__(self, seed: int, case: int):
        mask = (1 << 64) - 1
        hashed = int(_mix64(np.array(seed & mask, dtype=np.uint64)))
        self.key = (hashed + (case + 1) * _GAMMA_CASE) & mask
        self.taken = 0

    def hashes(self, count: int) -> list[int]:
        """The next `count` hashes of the stream, as Python ints."""
        h = _sample_keys(self.key, self.taken, count).tolist()
        self.taken += count
        return h

    def below(self, m: int) -> int:
        """An integer uniform on 0..m-1."""
        return (self.hashes(1)[0] * m) >> 64

    def normals(self, count: int) -> list[complex]:
        """`count` standard complex normals: real and imaginary parts iid N(0, 1)."""
        h = self.hashes(2 * count)
        out = []
        for u, v in zip(h[0::2], h[1::2]):
            # a radius from u's top 53 bits plus one, a uniform on (0, 1], and an angle from v's
            r = math.sqrt(-2.0 * math.log(((u >> 11) + 1) * 2.0**-53))
            theta = math.tau * ((v >> 11) * 2.0**-53)
            out.append(complex(r * math.cos(theta), r * math.sin(theta)))
        return out


def random_dirichlet(draws: _CaseDraws, max_support: int, max_index: int) -> DirichletPolynomial:
    """Sparse polynomial with standard complex normal coefficients on random indices.

    Every draw is the next of the case's splitmix64 stream `draws`, not numpy's Generator.
    The support size is uniform on 1..min(max_support, max_index), and the indices are
    distinct and uniform on 1..max_index, drawn by a partial Fisher-Yates shuffle of
    1..max_index that keeps only the moved entries, in a dict.
    """
    size = min(1 + draws.below(max_support), max_index)
    moved: dict[int, int] = {}
    indices = []
    for i, h in enumerate(draws.hashes(size)):
        j = i + ((h * (max_index - i)) >> 64)
        indices.append(moved.get(j, j + 1))
        moved[j] = moved.get(i, i + 1)
    return DirichletPolynomial(dict(zip(indices, draws.normals(size))))


def random_disc(draws: _CaseDraws, max_degree: int) -> DiscPolynomial:
    """Disc polynomial of degree uniform on 0..max_degree with standard complex normal coefficients.

    Every draw is the next of the case's splitmix64 stream `draws`, not numpy's Generator.
    """
    degree = draws.below(max_degree + 1)
    return DiscPolynomial(np.array(draws.normals(degree + 1)))


def hl_fuzz_suite(config: FuzzConfig, table: PrimeTable | None = None) -> list[ExperimentRecord]:
    """Run the selected inequality checks over a seeded random corpus.

    Each (case, inequality, p) yields one record with the two compared sides,
    both p-th power means; cases are classified pass / pass-within-slack /
    violation, and violations carry a full reproducer (case seed and polynomial
    JSON). A case draws a disc polynomial g, then a Dirichlet polynomial f.
    The disc checks are the Hardy-Littlewood checks of `hl_comparisons` on the
    lift sum g_j 2^(-js) against g's quadrature norms, so the table (sieved when not given)
    must cover max_index and 2^max_degree, and `nodes` must be at least 4 (max_degree + 1),
    both checked before the first case; the Dirichlet checks run on f against its Monte Carlo
    norms, at p = 1 too when the divisor chain is selected (`comparison_exponents`). `judge`,
    as in `hl_report`, gives every verdict. A case's disc records come first, then its
    Dirichlet records, each side in ascending p; 'fuzz-summary' closes the list, with the
    verdict counts and every violation in its extra.

    What does not depend on p is done once per case: one evaluation of |g| on the
    circle nodes serves every p (`disc_norm_many`), one Monte Carlo pass serves
    every p of f, and `hl_comparisons` factors each side's support once, for all its weights.
    """
    unknown = set(config.inequalities) - {*DISC_INEQUALITIES, *INEQUALITIES}
    if unknown:
        raise ValueError(f"unknown inequalities: {sorted(unknown)}")
    if config.corpus < 0:
        raise ValueError(f"corpus must be nonnegative, got {config.corpus}")
    # a draw uniform on 1..max_support, 1..max_index or 0..max_degree needs a nonempty range
    if config.max_support < 1 or config.max_index < 1 or config.max_degree < 0:
        raise ValueError(f"need max_support >= 1, max_index >= 1 and max_degree >= 0, got "
                         f"{config.max_support}, {config.max_index} and {config.max_degree}")
    if not all(0 < p < math.inf for p in config.p_values):
        raise ValueError(f"every p must be positive and finite, got {list(config.p_values)}")
    # the selected checks of each side, keyed by their name in `hl_comparisons`
    disc_checks = {DISC_INEQUALITIES[iq]: iq for iq in config.inequalities if iq in DISC_INEQUALITIES}
    dirich_checks = {iq: iq for iq in config.inequalities if iq in INEQUALITIES}
    # past the cap's bit length every disc lift is beyond any sieve the cap allows
    lift = 2 ** min(config.max_degree, memory_cap_bytes().bit_length()) if disc_checks else 1
    what = f"max index {config.max_index}" + (f" or disc lift 2^{config.max_degree}" if disc_checks else "")
    table = _sieved(table, max(config.max_index, lift), what)
    if disc_checks and config.nodes < 4 * (config.max_degree + 1):
        raise ValueError(f"need at least {4 * (config.max_degree + 1)} nodes for disc degree "
                         f"{config.max_degree}, got {config.nodes}")
    records: list[ExperimentRecord] = []
    violations: list[dict] = []
    summary = {"pass": 0, "pass-within-slack": 0, "violation": 0}

    disc_ps = comparison_exponents(config.p_values, disc_checks)
    dirich_ps = comparison_exponents(config.p_values, dirich_checks)

    for case in range(config.corpus):
        draws = _CaseDraws(config.seed, case)
        sides = []
        if disc_checks:
            g = random_disc(draws, config.max_degree)
            lift = DirichletPolynomial({2**j: c for j, c in enumerate(g.coefficients)})
            ests = disc_norm_many(g, disc_ps, config.nodes)
            sides.append((lift, ests, disc_checks, f"disc:{list(map(repr, g.coefficients.tolist()))}"))
        if dirich_checks:
            f = random_dirichlet(draws, config.max_support, config.max_index)
            ests = mc_norm_many(f, dirich_ps, config.samples, config.seed + 7919 * case, table, config.workers)
            sides.append((f, ests, dirich_checks, f.to_json()))

        for poly, ests, checks, repro in sides:
            for est, comparisons in zip(ests, hl_comparisons(poly, ests, table, checks)):
                for name, _, lhs, rhs in comparisons:
                    verdict, slack = judge(*((rhs, lhs) if config.invert else (lhs, rhs)), est)
                    summary[verdict] += 1
                    records.append(ExperimentRecord(
                        experiment=f"fuzz:{checks[name]}",
                        params={"p": est.p, "case": case, "seed": config.seed, "samples": config.samples},
                        value=lhs, normalizer=rhs, ratio=_ratio(lhs, rhs), std_error=est.std_error,
                        extra={"verdict": verdict, "slack": slack},
                    ))
                    if verdict == "violation":
                        violations.append({"inequality": checks[name], "p": est.p, "case": case, "lhs": lhs,
                                           "rhs": rhs, "slack": slack, "reproducer": repro})

    count = summary["violation"]
    records.append(ExperimentRecord(
        experiment="fuzz-summary",
        params={"seed": config.seed, "samples": config.samples, "method": "summary"},
        value=float(count), normalizer=float(config.corpus),
        ratio=count / config.corpus if config.corpus else 0.0,
        extra={"summary": summary, "violations": violations,
               "inequalities": list(config.inequalities), "p_values": list(config.p_values)},
    ))
    return records
