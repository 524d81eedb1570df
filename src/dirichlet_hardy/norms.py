"""Norm engines for Dirichlet polynomials and one-variable disc polynomials.

Exact routes: the l2 norm from coefficients, and even-exponent norms via
convolution (the 2k-norm of f is the l2 norm of f^k to the power 1/k).
Everything else is Monte Carlo over random completely multiplicative unit
coefficients (Steinhaus variables) from a counter-based generator. The angle of
prime p_j in sample i depends only on (seed, i, j), so the engine draws angles only
for the primes that divide some index of the support, and `steinhaus_sample` gives
the engine's bits for the primes p_1..p_J. The lift F = sum a_n z(n) is evaluated
point by point through z(n) = z(spf n) z(n/spf n), in cache-sized blocks of points,
so |F| for sample i depends only on (seed, i), whatever the chunk, the block, the
worker count or BLAS.

One-variable quasi-norms are computed by trapezoidal quadrature on equispaced
circle nodes; this is exact up to rounding for even p and spectrally accurate
otherwise as long as the polynomial has no zeros near the circle.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

# factorize is unused here; perfbench's tracer tests rebind and restore it in this module
from .arith import PrimeTable, factorize, multiplicative
from .dseries import DirichletPolynomial, dirichlet_power
from .errors import SieveLimitError, check_memory

_CHUNK = 8192  # samples drawn together; bounds working memory
_BLOCK_BYTES = 1 << 20  # node values of the points evaluated together; sized to stay in cache

# splitmix64 increments (odd 64-bit constants)
_GAMMA_SAMPLE = np.uint64(0x9E3779B97F4A7C15)
_GAMMA_PRIME = np.uint64(0xD1B54A32D192ED03)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place: callers pass a fresh array."""
    # uint64 arithmetic wraps mod 2^64 by design
    with np.errstate(over="ignore"):
        for shift, mult in ((30, _M1), (27, _M2)):
            x ^= x >> np.uint64(shift)
            x *= mult
        x ^= x >> np.uint64(31)
    return x


def _uniforms(seed: int, first_sample: int, count: int, columns: np.ndarray) -> np.ndarray:
    """Uniform angles in [0,1) for samples [first_sample, first_sample+count) and the given primes.

    `columns` holds 0-based prime positions (column j is the prime p_{j+1}). Entry
    (i, j) depends only on (seed, first_sample + i, columns[j]), so any partition of
    the sample range, or any choice of columns, reproduces the same values.
    """
    s0 = _mix64(np.array(seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
    idx = np.arange(first_sample + 1, first_sample + count + 1, dtype=np.uint64)
    per_sample = _mix64(s0 + idx * _GAMMA_SAMPLE)
    jdx = np.asarray(columns, dtype=np.uint64) + np.uint64(1)
    h = _mix64(per_sample[:, None] + jdx[None, :] * _GAMMA_PRIME)
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u *= 2.0**-53
    return u


def steinhaus_uniforms(seed: int, first_sample: int, count: int, prime_count: int) -> np.ndarray:
    """Uniform angles in [0,1) for samples [first_sample, first_sample+count) and primes 1..prime_count.

    The engine's stream: column j of it is what the engine draws for the prime p_{j+1}.
    """
    return _uniforms(seed, first_sample, count, np.arange(prime_count))


def pairwise_sum(values: np.ndarray) -> float:
    """Sum by a strict binary fold whose shape depends only on the length.

    Used for all Monte Carlo reductions: the result is bit-identical however
    the input array was produced.
    """
    a = np.asarray(values, dtype=np.float64)
    while a.size > 1:
        if a.size & 1:
            a = np.concatenate([a, [0.0]])
        a = a[0::2] + a[1::2]
    return float(a[0]) if a.size else 0.0


@dataclass(frozen=True)
class NormEstimate:
    """A quasi-norm value with its method and, for Monte Carlo, its precision.

    std_error is the standard error of the p-th power mean (the quantity the
    sampler actually averages); the error of `value` itself follows by the
    delta method, see `value_std_error`.
    """

    p: float
    value: float
    method: str
    samples: int | None = None
    std_error: float = 0.0
    seed: int | None = None

    @property
    def power_mean(self) -> float:
        return self.value**self.p

    @property
    def value_std_error(self) -> float:
        if self.std_error == 0.0 or self.power_mean == 0.0:
            return 0.0
        return self.value * self.std_error / (self.p * self.power_mean)

    def to_dict(self) -> dict:
        return asdict(self)


def l2_norm(f: DirichletPolynomial) -> NormEstimate:
    """sqrt of the sum of squared coefficient moduli."""
    total = math.fsum(abs(c) ** 2 for c in f.coefficients.values())
    return NormEstimate(p=2.0, value=math.sqrt(total), method="exact_l2")


def even_norm_exact(f: DirichletPolynomial, k: int) -> NormEstimate:
    """The exact 2k-quasi-norm via the l2 norm of the k-th convolution power."""
    if k < 1 or int(k) != k:
        raise ValueError(f"k must be a positive integer, got {k}")
    k = int(k)
    if not f.coefficients:
        return NormEstimate(p=2.0 * k, value=0.0, method="exact_even")
    fk = dirichlet_power(f, k)
    total = math.fsum(abs(c) ** 2 for c in fk.coefficients.values())
    return NormEstimate(p=2.0 * k, value=total ** (1.0 / (2 * k)), method="exact_even")


class _LiftPlan(NamedTuple):
    """Node slots ordered by (Omega(n), n): 1, the primes used, then a slice per Omega layer."""

    columns: np.ndarray  # 0-based table positions of the primes used, ascending
    size: int  # number of nodes
    layers: list  # (lo, hi, spf slots, cofactor slots) for Omega = 2, 3, ...
    terms: np.ndarray  # slots of the support in ascending n
    coeffs: np.ndarray  # a_n in the same order


def _lift_plan(f: DirichletPolynomial, table: PrimeTable) -> _LiftPlan:
    """The nodes of the Bohr lift of f: its support closed under n -> spf(n) and n -> n/spf(n)."""
    if f.length > table.limit:
        raise SieveLimitError(f"support reaches {f.length}, beyond sieve limit {table.limit}")
    spf = table.smallest_factor
    support = np.array(f.support, dtype=np.int64)
    nodes = np.union1d(support, [1])
    while (grown := np.union1d(nodes, np.r_[spf[nodes], nodes // spf[nodes]])).size > nodes.size:
        nodes = grown
    omega = multiplicative(nodes, table, lambda e: e, np.add)
    order = np.argsort(omega, kind="stable")
    slot, n = np.argsort(order), nodes[order]  # nodes[i] sits in slot[i]; slot r holds n[r]
    left, right = slot[np.searchsorted(nodes, spf[n])], slot[np.searchsorted(nodes, n // spf[n])]
    bounds = np.searchsorted(omega[order], np.arange(2, omega.max() + 2)).tolist()
    return _LiftPlan(
        columns=np.searchsorted(table.primes, nodes[omega == 1]),
        size=nodes.size,
        layers=[(lo, hi, left[lo:hi], right[lo:hi]) for lo, hi in zip(bounds, bounds[1:])],
        terms=slot[np.searchsorted(nodes, support)],
        coeffs=np.array([f.coeff(m) for m in f.support], dtype=np.complex128),
    )


def _lift_values(plan: _LiftPlan, z: np.ndarray) -> np.ndarray:
    """F = sum a_n z(n) at each point, from z at the points (rows) on the plan's primes (columns).

    Each point's row holds its node values: z(n) = z(spf n) z(n/spf n) fills them layer by
    layer, and numpy's pairwise sum along the row adds the terms (ascending n). No operation
    mixes rows, so a point's F does not depend on the points evaluated with it.
    """
    Z = np.empty((len(z), plan.size), dtype=np.complex128)
    Z[:, 0] = 1
    Z[:, 1 : 1 + plan.columns.size] = z
    for lo, hi, left, right in plan.layers:
        np.multiply(Z.take(left, axis=1), Z.take(right, axis=1), out=Z[:, lo:hi])
    return (Z.take(plan.terms, axis=1) * plan.coeffs).sum(axis=1)


def mc_norm_many(
    f: DirichletPolynomial,
    ps: Sequence[float],
    samples: int,
    seed: int,
    table: PrimeTable,
    workers: int = 1,
) -> list[NormEstimate]:
    """Monte Carlo estimates of several quasi-norms from one shared sample stream.

    Draws `samples` independent Steinhaus samples (one angle per prime dividing
    some index of the support), evaluates |F| once per sample, and forms each
    p-th power mean from the same |F| values. Deterministic for fixed
    (seed, samples) regardless of `workers`. Checks the memory cap before sampling.
    """
    ps = [float(p) for p in ps]
    for p in ps:
        if p <= 0:
            raise ValueError(f"p must be positive, got {p}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    plan = _lift_plan(f, table)
    starts = range(0, samples, _CHUNK)
    block = max(1, _BLOCK_BYTES // (16 * plan.size))
    # per worker: the chunk's uniform block with its mixing temporaries (24 B per column), and
    # per point of one block: node values, the widest layer's two gathers, term products and
    # phases; per sample of the whole run: |F|, |F|^p and the deviations with their temporary
    widest = max((hi - lo for lo, hi, _, _ in plan.layers), default=0)
    per_point = 16 * (plan.size + 2 * widest + plan.terms.size) + 40 * plan.columns.size
    per_worker = min(_CHUNK, samples) * 24 * plan.columns.size + min(block, samples) * per_point
    need = min(workers, len(starts)) * per_worker + 32 * samples
    check_memory(need, "Monte Carlo sampling")
    absF = np.empty(samples, dtype=np.float64)

    def fill(start: int) -> None:
        count = min(_CHUNK, samples - start)
        u = _uniforms(seed, start, count, plan.columns)
        for lo in range(start, start + count, block):
            z = np.exp(2j * np.pi * u[lo - start : lo - start + block])
            absF[lo : lo + len(z)] = np.abs(_lift_values(plan, z))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))
    else:
        for start in starts:
            fill(start)

    out = []
    for p in ps:
        x = absF**p
        mean = pairwise_sum(x) / samples
        var = pairwise_sum((x - mean) ** 2) / (samples - 1)
        se = math.sqrt(var / samples)
        out.append(
            NormEstimate(
                p=p,
                value=mean ** (1.0 / p),
                method="monte_carlo",
                samples=samples,
                std_error=se,
                seed=seed,
            )
        )
    return out


def mc_norm(
    f: DirichletPolynomial,
    p: float,
    samples: int,
    seed: int,
    table: PrimeTable,
    workers: int = 1,
) -> NormEstimate:
    """Monte Carlo estimate of the p-quasi-norm; see `mc_norm_many`."""
    return mc_norm_many(f, [p], samples, seed, table, workers)[0]


@dataclass(frozen=True)
class SteinhausSample:
    """One draw of unit complex values z(p_j), j = 1..J."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.size and not np.allclose(np.abs(self.values), 1.0):
            raise ValueError("Steinhaus values must have modulus 1")


def steinhaus_sample(seed: int, index: int, prime_count: int) -> SteinhausSample:
    """The sample that `mc_norm` uses at position `index` for the given seed."""
    if prime_count < 0:
        raise ValueError("prime_count must be nonnegative")
    u = steinhaus_uniforms(seed, index, 1, prime_count)[0]
    return SteinhausSample(values=np.exp(2j * np.pi * u))


def evaluate_at_sample(
    f: DirichletPolynomial, sample: SteinhausSample, table: PrimeTable
) -> complex:
    """sum a_n z(n) with z(n) the multiplicative extension of the sampled z(p_j)."""
    plan = _lift_plan(f, table)
    z = sample.values
    if plan.columns.size and plan.columns[-1] >= z.size:
        raise ValueError(f"sample covers {z.size} primes but the support needs {plan.columns[-1] + 1}")
    return complex(_lift_values(plan, z[None, plan.columns])[0])


@dataclass(frozen=True)
class DiscPolynomial:
    """Dense one-variable polynomial a_0 + a_1 z + ... + a_d z^d."""

    coefficients: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=np.complex128)
        nz = np.nonzero(a)[0]
        a = a[: nz[-1] + 1] if nz.size else a[:1] * 0
        a.flags.writeable = False
        object.__setattr__(self, "coefficients", a)

    @property
    def degree(self) -> int:
        return int(self.coefficients.size - 1)

    def __call__(self, z: np.ndarray | complex) -> np.ndarray | complex:
        return np.polynomial.polynomial.polyval(z, self.coefficients)


def disc_norm(f: DiscPolynomial, p: float, nodes: int = 4096) -> NormEstimate:
    """Boundary quasi-norm: the p-th root of the mean of |f|^p over equispaced circle nodes.

    For periodic integrands the trapezoidal rule is the plain node mean. With
    nodes > 2*degree the p=2 case is aliasing-free and matches the coefficient
    l2 norm to rounding.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    if nodes < 4 * (f.degree + 1):
        raise ValueError(f"need at least {4 * (f.degree + 1)} nodes for degree {f.degree}")
    z = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    vals = np.abs(f(z)) ** p
    mean = float(np.mean(vals))
    return NormEstimate(p=float(p), value=mean ** (1.0 / p), method="disc_quadrature")


def dilate(f: DiscPolynomial, r: float) -> DiscPolynomial:
    """The dilation f(z) -> f(rz): coefficient a_j becomes a_j r^j.

    Contractive from the p- into the q-quasi-norm exactly when r <= sqrt(p/q).
    """
    if not 0 < r <= 1:
        raise ValueError(f"r must lie in (0, 1], got {r}")
    scale = r ** np.arange(f.coefficients.size)
    return DiscPolynomial(f.coefficients * scale)
