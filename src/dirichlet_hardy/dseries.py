"""Sparse Dirichlet-polynomial algebra, named generators, and index-filter operators.

A Dirichlet polynomial sum a_n n^(-s) is stored as a sparse map n -> complex
coefficient. The operators here act by filtering indices: truncation to n <= N,
restriction to Omega(n) = m, and restriction to p_m-smooth indices (the m-th
Abschnitt); the last two read the `arith` factoring kernel. The Bohr lift to
the prime variables lives with the norm engines in `norms`. Every
multiplicative generator is a fold of the `arith` kernel over the smooth
indices of a truncated Euler product; none convolves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .arith import PrimeTable, divisor_values, multiplicative, prime_power_passes
from .errors import SieveLimitError, check_memory

# rough bytes per dict entry, counted against the memory cap
_BYTES_PER_COEFF = 150
# rough bytes per product that a convolution keeps until its coefficient is summed
_BYTES_PER_TERM = 40


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
        """The polynomial of `to_json`'s text: an object whose "coeffs" is a list of [index, re, im].

        Any other shape is a ValueError naming the entry: an index must be an int (not a bool)
        and each part a real number. json reads NaN and Infinity, which are refused too.
        """
        data = json.loads(text)
        if not (isinstance(data, dict) and isinstance(data.get("coeffs"), list)):
            raise ValueError('a polynomial is an object whose "coeffs" is a list of [index, re, im]')
        coefficients = {}
        for entry in data["coeffs"]:
            numbers = isinstance(entry, list) and len(entry) == 3 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            if not (numbers and isinstance(entry[0], int)):
                raise ValueError(f"coefficient entry {json.dumps(entry)} is not [integer index, re, im]")
            n, re, im = entry
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"the coefficient of index {n} is not finite: ({re}, {im})")
            coefficients[n] = complex(re, im)
        return cls(coefficients)


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
    """Coefficients d_alpha(n) n^(-1/2) for n <= N <= table.limit: the alpha-th Euler-product power over p <= N, truncated."""
    return euler_factor_power(N, alpha, N, table)


def _smooth_indices(primes: np.ndarray, N: int) -> np.ndarray:
    """Every n <= N whose prime factors all lie in the ascending int64 array `primes`, ascending.

    Each n > 1 is reached once, from n / P(n) with P(n) its largest prime
    factor, one Omega layer at a time, so the work is linear in the output.
    """
    n = np.ones(1, dtype=np.int64)
    low = np.zeros(1, dtype=np.intp)  # position of P(n) in `primes`: the least prime that may extend n
    layers = [n]
    while n.size:
        count = np.maximum(np.searchsorted(primes, N // n, side="right") - low, 0)
        parent = np.repeat(np.arange(n.size), count)
        low = low[parent] + np.arange(parent.size) - (np.cumsum(count) - count)[parent]
        n = n[parent] * primes[low]
        layers.append(n)
    return np.sort(np.concatenate(layers))


def euler_factor_power(
    prime_bound: int, alpha: float, N: int, table: PrimeTable
) -> DirichletPolynomial:
    """Truncation to n <= N of the alpha-th power of the Euler product over p <= prime_bound.

    Coefficients are d_alpha(n) n^(-1/2) on the prime_bound-smooth n <= N:
    the kernel fold of d_alpha over the smooth indices, so N must be <= table.limit.
    """
    if N < 1:
        raise ValueError(f"truncation must be >= 1, got {N}")
    if N > table.limit:
        raise SieveLimitError(f"truncation {N} exceeds sieve limit {table.limit}")
    if alpha <= 0:
        raise ValueError(f"exponent must be positive, got {alpha}")
    smooth = _smooth_indices(table.primes[table.primes <= prime_bound], N)
    d = divisor_values(smooth, alpha, table).tolist()
    return DirichletPolynomial({n: dn * n**-0.5 for n, dn in zip(smooth.tolist(), d)})


def extremal_product(
    p: float, prime_count: int, N: int, table: PrimeTable
) -> tuple[DirichletPolynomial, float]:
    """Product over the first `prime_count` primes of the unit-norm extremal factors.

    Each factor is (a + b p_j^(-s))^c with a = sqrt(1-p/2), b = sqrt(p/2) and
    c = 2/p, a one-variable function of unit H^p norm whose coefficient at
    p_j^e is binom(c, e) a^(c-e) b^e. The product truncated to n <= N is
    a^(c k) times the kernel fold of binom(c, e) (b/a)^e over the p_k-smooth
    n <= N, k = prime_count, so N must be <= table.limit.

    Also returns the squared-coefficient mass of the dropped factor terms
    p_j^e > N: 0 when 2/p is an integer, inf for 1 < p < 2 (where b > a).
    """
    if not 0 < p < 2:
        raise ValueError(f"p must lie in (0, 2), got {p}")
    if prime_count < 1:
        raise ValueError(f"prime_count must be >= 1, got {prime_count}")
    if N < 1:
        raise ValueError(f"truncation must be >= 1, got {N}")
    if N > table.limit:
        raise SieveLimitError(f"truncation {N} exceeds sieve limit {table.limit}")
    if prime_count > table.prime_count:
        raise ValueError(f"table holds only {table.prime_count} primes")
    c = 2.0 / p
    a = math.sqrt(1 - p / 2)
    b = math.sqrt(p / 2)
    binom = [1.0]  # binom(c, e) as a running product, up to the first exponent with 2^e > N
    for e in range(1, N.bit_length() + 1):
        binom.append(binom[-1] * ((c - e + 1) / e))
    smooth = _smooth_indices(table.primes[:prime_count], N)
    coeffs = multiplicative(
        smooth, table, lambda e: binom[e] * (b / a) ** e, start=a ** (c * prime_count)
    )
    poly = DirichletPolynomial(dict(zip(smooth.tolist(), coeffs.tolist())))
    if b > a:  # binom(c, e) decays only polynomially, so the dropped terms grow like (b/a)^e
        return poly, math.inf

    tail_l2 = 0.0
    for pj in table.primes[:prime_count].tolist():
        e = next(e for e in range(1, len(binom)) if pj**e > N)  # the least dropped exponent
        # l2 mass of the dropped exponents; binom(c, e) = 0 past c when 2/p is an integer
        coef = binom[e]
        t = coef * a ** (c - e) * b**e
        mass = 0.0
        while True:
            mass += t * t
            e += 1
            coef *= (c - e + 1) / e
            t = coef * a ** (c - e) * b**e
            if t * t < 1e-30 * (1 + mass):
                break
            if e > 5000:  # geometric tail: the terms shrink like (b/a)^e
                mass += t * t / (1 - (b / a) ** 2)
                break
        tail_l2 += mass
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
    """The unbounded-pairing witness: the (2/p)-th power of the Euler product over p <= prime_bound, n <= N <= table.limit."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return euler_factor_power(prime_bound, 2.0 / p, N, table)


def generate(spec: GeneratorSpec, table: PrimeTable) -> DirichletPolynomial:
    """Build the polynomial described by `spec` (truncations must fit the table)."""
    if spec.N > table.limit:
        raise SieveLimitError(f"truncation {spec.N} exceeds sieve limit {table.limit}")
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


def dirichlet_multiply(f: DirichletPolynomial, g: DirichletPolynomial) -> DirichletPolynomial:
    """Dirichlet convolution: coefficient at m is sum over d*e = m of f_d g_e.

    Each coefficient is correctly rounded (math.fsum over real and imaginary
    parts), so it does not depend on term order and f*g == g*f bit for bit.
    """
    terms: dict[int, list[complex]] = {}
    kept = 0
    for d, fd in f.coefficients.items():
        for e, ge in g.coefficients.items():
            m = d * e
            kept += 1
            ts = terms.get(m)
            if ts is not None:
                ts.append(fd * ge)
            else:
                terms[m] = [fd * ge]
        check_memory(len(terms) * _BYTES_PER_COEFF + kept * _BYTES_PER_TERM,
                     f"convolution keeping {kept} products on {len(terms)} coefficients")
    return DirichletPolynomial(
        {
            m: complex(math.fsum([t.real for t in ts]), math.fsum([t.imag for t in ts]))
            for m, ts in terms.items()
        }
    )


def dirichlet_power(f: DirichletPolynomial, k: int) -> DirichletPolynomial:
    """f convolved with itself k times, by binary exponentiation."""
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    result = None
    base = f
    while k:
        if k & 1:
            result = base if result is None else dirichlet_multiply(result, base)
        k >>= 1
        if k:
            base = dirichlet_multiply(base, base)
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
    keep = np.ones(len(f), dtype=bool)
    for rows, p, _ in prime_power_passes(list(f.coefficients), table):
        keep[rows[np.searchsorted(table.primes, p) >= m]] = False  # a prime beyond p_m
    return DirichletPolynomial(
        {n: c for (n, c), smooth in zip(f.coefficients.items(), keep.tolist()) if smooth}
    )
