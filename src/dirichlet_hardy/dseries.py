"""Sparse Dirichlet-polynomial algebra, named generators, and index-filter operators.

A Dirichlet polynomial sum a_n n^(-s) is stored as a sparse map n -> complex
coefficient. The operators here act by filtering indices: truncation to n <= N,
restriction to Omega(n) = m, and restriction to p_m-smooth indices. The Bohr
lift re-expresses a polynomial as monomials in the prime exponent vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .arith import PrimeTable, binomial_series_coefficient, bohr_exponents, divisor_values, multiplicative
from .errors import ResourceLimitError, memory_cap_bytes

# rough bytes per dict entry used to convert the memory cap into an entry cap
_BYTES_PER_COEFF = 150


@dataclass(frozen=True)
class DirichletPolynomial:
    """Sparse Dirichlet polynomial: finitely many complex coefficients indexed by n >= 1.

    Explicit zeros are dropped at construction; instances are immutable and
    hashable by identity, and all algebra returns new values.
    """

    coefficients: Mapping[int, complex]

    def __post_init__(self):
        cleaned = {}
        for n, c in self.coefficients.items():
            n = int(n)
            if n < 1:
                raise ValueError(f"index {n} out of range: indices start at 1")
            c = complex(c)
            if c != 0:
                cleaned[n] = c
        object.__setattr__(self, "coefficients", cleaned)

    @property
    def length(self) -> int:
        """Largest index with a nonzero coefficient (0 for the zero polynomial)."""
        return max(self.coefficients, default=0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.coefficients))

    def coeff(self, n: int) -> complex:
        return self.coefficients.get(n, 0j)

    def __len__(self) -> int:
        return len(self.coefficients)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirichletPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def to_json(self) -> str:
        items = [[n, self.coefficients[n].real, self.coefficients[n].imag] for n in self.support]
        return json.dumps({"coeffs": items})

    @classmethod
    def from_json(cls, text: str) -> "DirichletPolynomial":
        data = json.loads(text)
        return cls({int(n): complex(re, im) for n, re, im in data["coeffs"]})


ZERO = DirichletPolynomial({})
ONE = DirichletPolynomial({1: 1.0})


@dataclass(frozen=True)
class GeneratorSpec:
    """Tagged description of a named generator, dispatched by `generate`.

    kinds and their parameters:
      zeta:                 N
      zeta-power:           N, alpha
      euler-power:          N, alpha, prime_bound
      extremal-product:     N, p, prime_count
      fractional-primitive: N, beta
      duality-witness:      N, p, prime_bound
    """

    kind: str
    N: int = 0
    alpha: float | None = None
    p: float | None = None
    prime_bound: int | None = None
    prime_count: int | None = None
    beta: float | None = None


def zeta_partial(N: int) -> DirichletPolynomial:
    """Z_N: coefficients n^(-1/2) for n <= N, the pseudomoment generator."""
    if N < 1:
        raise ValueError(f"truncation must be >= 1, got {N}")
    return DirichletPolynomial({n: n**-0.5 for n in range(1, N + 1)})


def zeta_power_partial(N: int, alpha: float, table: PrimeTable) -> DirichletPolynomial:
    """Coefficients d_alpha(n) n^(-1/2) for n <= N (partial sum of the alpha-th zeta power, half-shifted)."""
    if N < 1:
        raise ValueError(f"truncation must be >= 1, got {N}")
    if N > table.limit:
        raise ValueError(f"truncation {N} exceeds sieve limit {table.limit}")
    d = divisor_values(np.arange(1, N + 1), alpha, table).tolist()
    return DirichletPolynomial({n: dn * n**-0.5 for n, dn in enumerate(d, start=1)})


def euler_factor_power(
    prime_bound: int, alpha: float, N: int, table: PrimeTable
) -> DirichletPolynomial:
    """Truncation to n <= N of the alpha-th power of the Euler product over p <= prime_bound.

    Coefficients are d_alpha(n) n^(-1/2) supported on prime_bound-smooth n;
    the smooth indices are enumerated directly, one prime at a time.
    """
    if N < 1:
        raise ValueError(f"truncation must be >= 1, got {N}")
    if alpha <= 0:
        raise ValueError(f"exponent must be positive, got {alpha}")
    primes = [int(p) for p in table.primes[table.primes <= prime_bound]]
    # map smooth n -> d_alpha(n)
    dvals = {1: 1.0}
    for p in primes:
        additions = {}
        for n, d in dvals.items():
            pe, e = p, 1
            while n * pe <= N:
                additions[n * pe] = d * binomial_series_coefficient(e, alpha)
                pe *= p
                e += 1
        dvals.update(additions)
    return DirichletPolynomial({n: d * n**-0.5 for n, d in dvals.items()})


def extremal_product(
    p: float, prime_count: int, N: int, table: PrimeTable
) -> tuple[DirichletPolynomial, float]:
    """Product over the first `prime_count` primes of the unit-norm extremal factors.

    Each factor is (sqrt(1-p/2) + p_j^(-s) sqrt(p/2))^(2/p), a one-variable
    function of unit H^p norm; its series in p_j^(-s) is expanded to the largest
    exponent e with p_j^e <= N and the full product is truncated to n <= N.

    Returns the polynomial together with the total squared-coefficient mass
    discarded by the per-factor truncations (0 when every factor terminates,
    e.g. when 2/p is an integer).
    """
    if not 0 < p < 2:
        raise ValueError(f"p must lie in (0, 2), got {p}")
    if prime_count < 1:
        raise ValueError(f"prime_count must be >= 1, got {prime_count}")
    if N < 1:
        raise ValueError(f"truncation must be >= 1, got {N}")
    if prime_count > table.prime_count:
        raise ValueError(f"table holds only {table.prime_count} primes")
    c = 2.0 / p
    a = math.sqrt(1 - p / 2)
    b = math.sqrt(p / 2)
    integral_power = float(c).is_integer()

    poly = ONE
    tail_l2 = 0.0
    for j in range(1, prime_count + 1):
        pj = table.prime(j)
        factor = {}
        e = 0
        pe = 1
        coef = 1.0  # binom(c, e) so far
        # coefficient at exponent e: binom(c, e) a^(c-e) b^e
        while pe <= N:
            factor[pe] = coef * a ** (c - e) * b**e
            e += 1
            pe *= pj
            coef *= (c - e + 1) / e
        # l2 mass of the dropped exponents; terminates unless 2/p is fractional
        if not integral_power or e < c + 1:
            mass = 0.0
            t = coef * a ** (c - e) * b**e
            while True:
                mass += t * t
                e += 1
                coef *= (c - e + 1) / e
                t = coef * a ** (c - e) * b**e
                if integral_power and e > c:
                    break
                if t * t < 1e-30 * (1 + mass):
                    break
                if e > 5000:
                    # series diverges on the boundary when b >= a (p >= 1, 2/p fractional)
                    mass += t * t / (1 - (b / a) ** 2) if b < a else math.inf
                    break
            tail_l2 += mass
        poly = dirichlet_multiply(poly, DirichletPolynomial(factor), truncation=N)
    return poly, tail_l2


def fractional_primitive(beta: float, N: int) -> DirichletPolynomial:
    """a_1 = 1 and a_n = n^(-1/2) (log n)^(-beta) for 2 <= n <= N (natural log)."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if N < 1:
        raise ValueError(f"truncation must be >= 1, got {N}")
    coeffs = {1: 1.0}
    for n in range(2, N + 1):
        coeffs[n] = n**-0.5 * math.log(n) ** -beta
    return DirichletPolynomial(coeffs)


def duality_witness(p: float, prime_bound: int, N: int, table: PrimeTable) -> DirichletPolynomial:
    """The (2/p)-th power of the truncated Euler product: the unbounded-pairing witness."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return euler_factor_power(prime_bound, 2.0 / p, N, table)


def generate(spec: GeneratorSpec, table: PrimeTable) -> DirichletPolynomial:
    """Build the polynomial described by `spec` (truncations must fit the table)."""
    if spec.N > table.limit:
        raise ValueError(f"truncation {spec.N} exceeds sieve limit {table.limit}")
    if spec.kind == "zeta":
        return zeta_partial(spec.N)
    if spec.kind == "zeta-power":
        if spec.alpha is None:
            raise ValueError("zeta-power requires alpha")
        return zeta_power_partial(spec.N, spec.alpha, table)
    if spec.kind == "euler-power":
        if spec.alpha is None or spec.prime_bound is None:
            raise ValueError("euler-power requires alpha and prime_bound")
        return euler_factor_power(spec.prime_bound, spec.alpha, spec.N, table)
    if spec.kind == "extremal-product":
        if spec.p is None or spec.prime_count is None:
            raise ValueError("extremal-product requires p and prime_count")
        poly, _ = extremal_product(spec.p, spec.prime_count, spec.N, table)
        return poly
    if spec.kind == "fractional-primitive":
        if spec.beta is None:
            raise ValueError("fractional-primitive requires beta")
        return fractional_primitive(spec.beta, spec.N)
    if spec.kind == "duality-witness":
        if spec.p is None or spec.prime_bound is None:
            raise ValueError("duality-witness requires p and prime_bound")
        return duality_witness(spec.p, spec.prime_bound, spec.N, table)
    raise ValueError(f"unknown generator kind {spec.kind!r}")


def dirichlet_multiply(
    f: DirichletPolynomial, g: DirichletPolynomial, truncation: int | None = None
) -> DirichletPolynomial:
    """Dirichlet convolution: coefficient at m is sum over d*e = m of f_d g_e.

    Each coefficient is correctly rounded (math.fsum over real and imaginary
    parts), so it does not depend on term order and f*g == g*f bit for bit.
    Indices beyond `truncation` are dropped; dropping is safe at intermediate
    stages because indices only grow under convolution.
    """
    cap_entries = memory_cap_bytes() // _BYTES_PER_COEFF
    terms: dict[int, list[complex]] = {}
    for d, fd in f.coefficients.items():
        for e, ge in g.coefficients.items():
            m = d * e
            if truncation is not None and m > truncation:
                continue
            ts = terms.get(m)
            if ts is not None:
                ts.append(fd * ge)
            else:
                terms[m] = [fd * ge]
                if len(terms) > cap_entries:
                    raise ResourceLimitError(
                        f"convolution support exceeded {cap_entries} coefficients",
                        memory_cap_bytes(),
                    )
    return DirichletPolynomial(
        {
            m: complex(math.fsum([t.real for t in ts]), math.fsum([t.imag for t in ts]))
            for m, ts in terms.items()
        }
    )


def dirichlet_power(
    f: DirichletPolynomial, k: int, truncation: int | None = None
) -> DirichletPolynomial:
    """f convolved with itself k times, by binary exponentiation."""
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    result = None
    base = f
    while k:
        if k & 1:
            result = base if result is None else dirichlet_multiply(result, base, truncation)
        k >>= 1
        if k:
            base = dirichlet_multiply(base, base, truncation)
    return result


def partial_sum(f: DirichletPolynomial, N: int) -> DirichletPolynomial:
    """Keep the coefficients with index <= N. Linear and idempotent."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return DirichletPolynomial({n: c for n, c in f.coefficients.items() if n <= N})


def homogeneous_projection(f: DirichletPolynomial, m: int, table: PrimeTable) -> DirichletPolynomial:
    """Keep the coefficients with Omega(n) = m; the projections over m partition f."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    big_omega = multiplicative(list(f.coefficients), table, lambda e: e, np.add)
    return DirichletPolynomial(
        {n: c for (n, c), om in zip(f.coefficients.items(), big_omega.tolist()) if om == m}
    )


def smooth_truncation(f: DirichletPolynomial, m: int, table: PrimeTable) -> DirichletPolynomial:
    """Keep the coefficients whose index is p_m-smooth (all prime factors among the first m primes).

    Composing two of these keeps the smaller prime window.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rows, j, _ = bohr_exponents(list(f.coefficients), table)
    rough = set(rows[j >= m].tolist())
    return DirichletPolynomial(
        {n: c for i, (n, c) in enumerate(f.coefficients.items()) if i not in rough}
    )


@dataclass(frozen=True)
class BohrMonomial:
    """One term of the Bohr lift: coefficient times z^kappa over the prime variables."""

    kappa: tuple[int, ...]
    coefficient: complex

    def index(self, table: PrimeTable) -> int:
        """Reconstruct n = prod p_j^(kappa_j)."""
        n = 1
        for j, e in enumerate(self.kappa, start=1):
            n *= table.prime(j) ** e
        return n


def bohr_lift(f: DirichletPolynomial, table: PrimeTable) -> list[BohrMonomial]:
    """The polynomial as monomials in the prime exponent vectors, sorted by index."""
    support = f.support
    rows, j, e = bohr_exponents(support, table)
    kappas: list[list[int]] = [[] for _ in support]
    for row, col, exp in zip(rows.tolist(), j.tolist(), e.tolist()):  # ascending col per row
        kappas[row] += [0] * (col - len(kappas[row])) + [exp]
    return [
        BohrMonomial(kappa=tuple(kappa), coefficient=f.coefficients[n])
        for n, kappa in zip(support, kappas)
    ]
