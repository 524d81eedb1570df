"""Weighted coefficient inequalities, the one rule that judges them, and extremal coefficient functionals.

Upper route (p >= 2): the quasi-norm is at most the square root of
sum |a_n|^2 Phi_{p/2}(n). Lower route (p <= 2): the square root of
sum |a_n|^2 / Phi_{2/p}(n) is at most the quasi-norm, with a square-free
variant using |mu(n)| / d_{2/p}(n), and at p = 1 the divisor chain |f|_2 / sqrt(max d(n))
from Helson's inequality. `hl_comparisons` forms both sides of each as p-th power means,
and `judge` is the one verdict on them, for `hl_report`, the fuzz suite and the witness:
against a norm estimate they may miss by `_slack`, 3 standard errors of the power mean
plus a 1e-10 relative rounding allowance, which is all a quadrature estimate (std_error 0)
gets. On a polynomial in 2^(-s) alone they are the one-variable inequalities for disc
polynomials, so the fuzz suite's disc checks run through `hl_comparisons` as well. It
takes all of a polynomial's estimates at once and folds every weight of every p from one
factoring of the support (`arith.factoring`), which the sums also accept.

The coefficient functional C(k, p) is the largest k-th Taylor coefficient over
the unit ball of the one-variable p-space; its multiplicative extension over
prime powers bounds the n-th coefficient functional on Dirichlet series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .arith import (
    PrimeTable,
    binomial_series_coefficient,
    divisor_values,
    divisor_weight_values,
    factoring,
    multiplicative,
)
from .dseries import DirichletPolynomial
from .norms import NormEstimate, _lift_at, _lift_plan, l2_norm


def hl_upper_sum(f: DirichletPolynomial, p: float, table: PrimeTable, passes=None) -> float:
    """sum |a_n|^2 Phi_{p/2}(n); its square root dominates the p-quasi-norm for p >= 2.

    `passes`, the result of `arith.factoring` on f's support, saves factoring it again.
    """
    if p < 2:
        raise ValueError(f"upper weighted sum needs p >= 2, got {p}")
    weights = divisor_weight_values(list(f.coefficients), p / 2, table, passes).tolist()
    return math.fsum(abs(c) ** 2 * w for c, w in zip(f.coefficients.values(), weights))


def hl_lower_sum(f: DirichletPolynomial, p: float, table: PrimeTable, passes=None) -> float:
    """sum |a_n|^2 / Phi_{2/p}(n); its square root is below the p-quasi-norm for 0 < p <= 2.

    `passes` as in `hl_upper_sum`.
    """
    if not 0 < p <= 2:
        raise ValueError(f"lower weighted sum needs 0 < p <= 2, got {p}")
    weights = divisor_weight_values(list(f.coefficients), 2 / p, table, passes).tolist()
    return math.fsum(abs(c) ** 2 / w for c, w in zip(f.coefficients.values(), weights))


def squarefree_lower_sum(f: DirichletPolynomial, p: float, table: PrimeTable, passes=None) -> float:
    """sum |a_n|^2 |mu(n)| / d_{2/p}(n): the lower weighted sum restricted to square-free indices.

    On square-free support it coincides with `hl_lower_sum` since the hybrid
    weight equals d_{2/p} there; indices with a squared factor drop out.
    `passes` as in `hl_upper_sum`.
    """
    if not 0 < p <= 2:
        raise ValueError(f"lower weighted sum needs 0 < p <= 2, got {p}")
    # d_{2/p}(n) on square-free n, 0 where a squared prime divides n
    c1 = binomial_series_coefficient(1, 2 / p)
    d = multiplicative(list(f.coefficients), table, lambda e: c1 if e == 1 else 0.0, passes=passes).tolist()
    return math.fsum(abs(c) ** 2 / dn for c, dn in zip(f.coefficients.values(), d) if dn)


def coeff_functional_exact(p: float) -> float:
    """C(1, p): the norm of f -> f'(0) on the unit ball of the one-variable p-space.

    1 for p >= 1; sqrt(2/p) (1 - p/2)^(1/p - 1/2) for 0 < p < 1 (continuous at 1).
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if p >= 1:
        return 1.0
    return math.sqrt(2 / p) * (1 - p / 2) ** (1 / p - 0.5)


def _dilation_bound_objective(x: float, k: int, p: float) -> float:
    return x ** (-k / 2) * (1 - x) ** (1 / x - 1 / p)


def _minimize_dilation_bound(k: int, p: float) -> tuple[float, float]:
    """Minimize x^(-k/2) (1-x)^(1/x - 1/p) over [p, 1): coarse grid, then golden section."""
    lo, hi = p, 1 - 1e-9
    grid = 2048
    xs = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
    vals = [_dilation_bound_objective(x, k, p) for x in xs]
    i = min(range(len(vals)), key=vals.__getitem__)
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid)]
    invphi = (math.sqrt(5) - 1) / 2
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _dilation_bound_objective(c, k, p)
    fd = _dilation_bound_objective(d, k, p)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _dilation_bound_objective(c, k, p)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _dilation_bound_objective(d, k, p)
    x = (a + b) / 2
    # the minimum may sit exactly on the left endpoint, where the objective is p^(-k/2)
    best_x, best = min(
        ((x, _dilation_bound_objective(x, k, p)), (lo, _dilation_bound_objective(lo, k, p))),
        key=lambda t: t[1],
    )
    return best, best_x


@dataclass(frozen=True)
class CoefficientBound:
    """Best available upper bound on C(k, p) with the per-method values."""

    k: int
    p: float
    value: float
    method: str
    candidates: dict = field(default_factory=dict)


def coeff_functional_bound(k: int, p: float) -> CoefficientBound:
    """Upper bounds on C(k, p) for 0 < p < 1.

    'minimized' comes from the Cauchy integral plus contractive dilation:
    min over x in [p, 1) of x^(-k/2) (1-x)^(1/x-1/p). 'binomial' is
    sqrt(c_ceil(2/p)(k)), stronger for p near 0. The reported value is the
    smaller of the two; for k = 1 the exact closed form is recorded alongside.
    """
    if not 0 < p < 1:
        raise ValueError(f"bounds require 0 < p < 1, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    minimized, minimizer = _minimize_dilation_bound(k, p)
    binomial = math.sqrt(binomial_series_coefficient(k, math.ceil(2 / p)))
    candidates = {"minimized": minimized, "binomial": binomial, "minimizer_x": minimizer}
    value = min(minimized, binomial)
    if k == 1:
        exact = coeff_functional_exact(p)
        candidates["closed_form"] = exact
        if value < exact - 1e-12:
            raise AssertionError(
                f"upper bound {value} fell below the exact value {exact} at k=1, p={p}"
            )
    return CoefficientBound(k=k, p=p, value=value, method="best", candidates=candidates)


def coeff_functional_prime_power(e: int, p: float) -> float:
    """Factor at p_j^e of `coeff_functional_multiplicative`: C(1, p) if e = 1, else the bound on C(e, p)."""
    return coeff_functional_exact(p) if e == 1 else coeff_functional_bound(e, p).value


def coeff_functional_multiplicative(n: int, p: float, table: PrimeTable) -> float:
    """Upper bound on the n-th coefficient functional: product over prime powers p_j^k || n.

    Exact (the closed form to the power omega(n)) when n is square-free, an
    upper bound otherwise.
    """
    if not 0 < p < 1:
        raise ValueError(f"multiplicative bound requires 0 < p < 1, got {p}")
    return float(multiplicative([n], table, lambda e: coeff_functional_prime_power(e, p))[0])


def point_evaluation_margin(
    f: DirichletPolynomial,
    z: Sequence[complex],
    p: float,
    norm: NormEstimate,
    table: PrimeTable,
) -> float:
    """Slack in the pointwise bound |F(z)| <= prod_j (1 - |z_j|^2)^(-1/p) * norm.

    z lists the first coordinates of the lifted point (missing ones are 0);
    F is the lifted polynomial. Nonnegative, up to statistical error in `norm`.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    zs = [complex(w) for w in z]
    if any(abs(w) >= 1 for w in zs):
        raise ValueError("all point coordinates must satisfy |z_j| < 1")
    growth = 1.0
    for w in zs:
        growth *= (1 - abs(w) ** 2) ** (-1 / p)
    # coordinates beyond the supplied point are 0, so monomials that use them vanish
    plan = _lift_plan(f, table)
    value = _lift_at(plan, [zs[j] if j < len(zs) else 0j for j in plan.columns.tolist()])
    return growth * norm.value - abs(value)


def primitive_pairing(f: DirichletPolynomial, beta: float) -> complex:
    """a_1 + sum_{n>=2} a_n n^(-1/2) (log n)^(-beta): pairing against the fractional primitive."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    # correctly rounded parts, as in `dirichlet_multiply`: equal polynomials give equal bits
    terms = [complex(f.coeff(1))]
    terms += [c * n**-0.5 * math.log(n) ** -beta for n, c in f.coefficients.items() if n >= 2]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


# standard errors of the p-th power mean that a Monte Carlo comparison allows
_SLACK_SIGMA = 3.0

# `hl_report`'s inequalities, then all of `hl_comparisons`', in the order it returns them
HL_INEQUALITIES = ("hl-upper", "hl-lower", "squarefree-lower")
INEQUALITIES = (*HL_INEQUALITIES, "divisor-chain")
_CHAIN_P = 1.0  # the divisor chain's exponent, at which the power mean is the norm itself


def _slack(norm: NormEstimate) -> float:
    """How far a p-th power mean comparison against `norm` may miss: statistical plus rounding."""
    return _SLACK_SIGMA * norm.std_error + 1e-10 * max(1.0, norm.power_mean)


def judge(smaller: float, larger: float, norm: NormEstimate) -> tuple[str, float]:
    """The verdict on smaller <= larger, p-th power means one of which `norm` estimates, and its
    slack `_slack(norm)`: 'pass', 'pass-within-slack' if the slack closes the gap, or 'violation'."""
    slack = _slack(norm)
    if smaller <= larger:
        return "pass", slack
    return ("pass-within-slack" if smaller <= larger + slack else "violation"), slack


def comparison_exponents(ps: Sequence[float], inequalities: Sequence[str]) -> list[float]:
    """The exponents that `hl_comparisons` needs estimates at to check `inequalities` at each of
    `ps`: `ps` ascending without repeats, with p = 1 added when the divisor chain is named."""
    return sorted({*ps, _CHAIN_P} if "divisor-chain" in inequalities else set(ps))


def hl_comparisons(
    f: DirichletPolynomial,
    norms: Sequence[NormEstimate],
    table: PrimeTable,
    inequalities: Sequence[str] = HL_INEQUALITIES,
) -> list[list[tuple[str, float, float, float]]]:
    """Per estimate of `norms`: (name, weighted sum, smaller side, larger side) for each of
    `inequalities` that applies at the estimate's p.

    hl-upper applies for p >= 2, hl-lower and squarefree-lower for p <= 2, and divisor-chain
    at p = 1, after the lower sums, with sqrt(max d(n)) as its weighted sum; other names are
    ignored. Both sides are p-th power means. Every weight of every p, d(n) included, is
    folded from one factoring of f's support, made here.
    """
    support = list(f.coefficients)
    passes = factoring(support, table)
    lowers = (("hl-lower", hl_lower_sum), ("squarefree-lower", squarefree_lower_sum))
    out = []
    for norm in norms:
        p, found = norm.p, []
        if p >= 2 and "hl-upper" in inequalities:
            upper = hl_upper_sum(f, p, table, passes)
            found.append(("hl-upper", upper, norm.power_mean, upper ** (p / 2)))
        for name, weighted_sum in lowers:
            if p <= 2 and name in inequalities:
                lower = weighted_sum(f, p, table, passes)
                found.append((name, lower, lower ** (p / 2), norm.power_mean))
        if p == _CHAIN_P and "divisor-chain" in inequalities:
            max_sqrt_d = math.sqrt(divisor_values(support, 2.0, table, passes).max(initial=1.0))
            found.append(("divisor-chain", max_sqrt_d, l2_norm(f).value / max_sqrt_d, norm.power_mean))
        out.append(found)
    return out


@dataclass(frozen=True)
class HLReport:
    """Outcome of checking the weighted coefficient inequalities on one polynomial.

    verdict is derived from the stored numbers only: 'consistent' unless `judge` finds
    an inequality of `hl_comparisons` violated.
    """

    p: float
    norm: NormEstimate
    upper_sum: float | None
    lower_sum: float | None
    squarefree_sum: float | None
    verdict: str
    slack_sigma: float


def hl_report(
    f: DirichletPolynomial,
    p: float,
    norm: NormEstimate,
    table: PrimeTable,
) -> HLReport:
    """Check the weighted inequalities that apply at p against a norm estimate made at p."""
    if float(p) != norm.p:
        raise ValueError(f"the norm estimate is at p={norm.p}, not at p={p}")
    (comparisons,) = hl_comparisons(f, [norm], table)
    sums = {name: weighted_sum for name, weighted_sum, _, _ in comparisons}
    ok = all(judge(smaller, larger, norm)[0] != "violation" for _, _, smaller, larger in comparisons)
    return HLReport(
        p=p,
        norm=norm,
        upper_sum=sums.get("hl-upper"),
        lower_sum=sums.get("hl-lower"),
        squarefree_sum=sums.get("squarefree-lower"),
        verdict="consistent" if ok else "violation-suspected",
        slack_sigma=_SLACK_SIGMA,
    )
