"""Multiplicative number-theory kernel.

Primes and least-factor sieve, one vectorized factoring kernel, the
binomial-series coefficients c_alpha(j), generalized divisor functions
d_alpha(n), the hybrid weight Phi_alpha(n) = d_floor(alpha)(n) * (alpha/floor(alpha))^Omega(n),
truncated Euler products with certified tail bounds, and counts of integers
by number of prime factors.

An Euler product is summed in the log domain: its callers give the log of
each local factor (with log1p where the factor is near 1) and `euler_product`
takes their fsum, so constants such as the large-k pseudomoment constants,
which underflow double precision, keep a finite `log_value`.

`prime_power_passes` is the one loop that factors: it strips the least prime
power from every index of an array per pass, so each index meets its prime
powers in ascending order. Every multiplicative quantity (d_alpha, Phi_alpha,
mu, Omega, the coefficient-functional bound, the `dseries` generators) is a
fold over those passes, bit-identical to the scalar loop over a factorization
because the per-exponent table is built from Python scalars
(`binomial_series_coefficient`, `(alpha/m)**j`) and the fold combines left to
right in ascending prime order from 1 (products) or 0 (sums). `factoring`
lists the passes, so that several folds over the same indices (the weights of
every p of a grid, say) share one factoring with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import SieveLimitError, check_memory


@dataclass(frozen=True)
class PrimeTable:
    """Primes up to `limit` plus a least-prime-factor array for fast factoring.

    `smallest_factor[n]` is the least prime factor of n (0 for n=0, 1 for n=1).
    Immutable after construction; safe to share across threads.
    """

    limit: int
    primes: np.ndarray
    smallest_factor: np.ndarray

    @property
    def prime_count(self) -> int:
        return int(self.primes.size)

    def prime(self, j: int) -> int:
        """The j-th prime, 1-based: prime(1) == 2."""
        if j < 1 or j > self.primes.size:
            raise ValueError(f"prime index {j} out of range 1..{self.primes.size}")
        return int(self.primes[j - 1])

    def prime_index(self, p: int) -> int:
        """1-based index of the prime p in the table."""
        pos = int(np.searchsorted(self.primes, p))
        if pos >= self.primes.size or int(self.primes[pos]) != p:
            raise ValueError(f"{p} is not a prime in this table")
        return pos + 1


def sieve_primes(limit: int) -> PrimeTable:
    """Least-prime-factor sieve of Eratosthenes up to `limit` inclusive."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    # the int32 table, the boolean mask of unmarked indices, and the int64 primes,
    # of which there are fewer than 1.25506 x / log x (Rosser and Schoenfeld, 1962)
    need = 5 * (limit + 1) + 8 * math.ceil(1.25506 * limit / math.log(limit))
    check_memory(need, f"sieve of size {limit}")
    spf = np.zeros(limit + 1, dtype=np.int32)
    spf[1] = 1
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    # anything still unmarked, apart from index 0, is prime
    primes = np.flatnonzero(spf == 0)[1:]
    spf[primes] = primes
    spf.flags.writeable = False
    primes.flags.writeable = False
    return PrimeTable(limit=limit, primes=primes, smallest_factor=spf)


# indices factored together: bounds the working arrays and keeps the table lookups cache-local
_BLOCK = 1 << 16
# working bytes per index of a block: row ids, cofactors, primes, exponents, masks, temporaries
_PASS_BYTES = 48


def prime_power_passes(
    n, table: PrimeTable, out_itemsize: int = 0
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Factor every index of the array `n` by stripping least prime powers in vectorized passes.

    Yields (rows, p, e) per pass: p[i]**e[i] exactly divides n[rows[i]], and
    each row meets its primes in ascending order (n = 1 never appears). Works
    through `n` in blocks of _BLOCK indices, so working memory stays bounded.
    Checks eagerly that 1 <= n <= table.limit and that the working arrays,
    plus `out_itemsize` bytes per index for the caller's result, fit the cap.
    """
    n = np.asarray(n, dtype=np.int64)
    if n.size and int(n.min()) < 1:
        raise ValueError(f"cannot factor {int(n.min())}: need n >= 1")
    if n.size and int(n.max()) > table.limit:
        raise SieveLimitError(f"{int(n.max())} exceeds sieve limit {table.limit}; re-sieve with a larger table")
    need = n.size * (n.itemsize + out_itemsize) + min(n.size, _BLOCK) * _PASS_BYTES
    check_memory(need, f"factoring {n.size} indices")
    return _strip_passes(n, table.smallest_factor)


def _strip_passes(n: np.ndarray, spf: np.ndarray):
    for lo in range(0, n.size, _BLOCK):
        rows = lo + np.flatnonzero(n[lo : lo + _BLOCK] > 1)
        rest = n[rows].astype(spf.dtype)
        p = spf[rest]
        while rows.size:
            rest //= p
            e = np.ones(rows.size, dtype=np.uint8)
            # p still divides rest exactly when it is still rest's least prime factor
            spf_rest = spf[rest]
            more = np.flatnonzero(spf_rest == p)
            while more.size:
                q = p[more]
                r = rest[more] // q
                rest[more] = r
                e[more] += 1
                s = spf[r]
                spf_rest[more] = s
                more = more[s == q]
            yield rows, p, e
            left = np.flatnonzero(rest > 1)
            rows, rest, p = rows[left], rest[left], spf_rest[left]


def factoring(n, table: PrimeTable) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The passes of `prime_power_passes(n, table)` in a list, for several folds to share.

    The cap check counts one 8-byte result per index. The list holds every prime
    power of every index, so it suits index arrays that are already held in
    memory term by term, such as a polynomial's support.
    """
    return list(prime_power_passes(n, table, 8))


def multiplicative(
    n, table: PrimeTable, rule: Callable, ufunc=np.multiply, start=None, passes=None
) -> np.ndarray:
    """Fold rule(e) over the prime powers p^e || n, for every index of the array `n`.

    The table rule(1), rule(2), ... is built once from Python scalars and sets
    the result dtype: int64 for an int rule, float64 for a float rule. Each
    fold starts from `start` (default: the ufunc identity, 1 for products and
    0 for sums) and applies `ufunc` left to right in ascending prime order.
    `passes`, the result of `factoring(n, table)`, saves factoring n again.
    """
    n = np.asarray(n, dtype=np.int64)
    top = max(int(n.max(initial=1)).bit_length() - 1, 1)  # p^e <= n forces e <= log2 n
    values = np.array([rule(e) for e in range(1, top + 1)])
    if passes is None:
        passes = prime_power_passes(n, table, values.itemsize)
    out = np.full(n.shape, ufunc.identity if start is None else start, dtype=values.dtype)
    for rows, _, e in passes:
        out[rows] = ufunc(out[rows], values[e - 1])
    return out


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of n with the derived arithmetic data.

    kappa is the Bohr exponent vector: kappa[j-1] is the exponent of the j-th
    prime, truncated after the last nonzero entry (kappa(1) is the empty tuple).
    """

    n: int
    factors: tuple[tuple[int, int], ...]
    big_omega: int
    small_omega: int
    mobius: int
    kappa: tuple[int, ...]


def factorize(n: int, table: PrimeTable) -> Factorization:
    """Factor n using the least-prime-factor table."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    if n > table.limit:
        raise SieveLimitError(f"{n} exceeds sieve limit {table.limit}; re-sieve with a larger table")
    factors = [(int(p[0]), int(e[0])) for _, p, e in prime_power_passes([n], table)]
    big_omega = sum(e for _, e in factors)
    small_omega = len(factors)
    mobius = 0 if any(e >= 2 for _, e in factors) else (-1) ** small_omega
    kappa = [0] * (table.prime_index(factors[-1][0]) if factors else 0)
    for p, e in factors:
        kappa[table.prime_index(p) - 1] = e
    return Factorization(
        n=n,
        factors=tuple(factors),
        big_omega=big_omega,
        small_omega=small_omega,
        mobius=mobius,
        kappa=tuple(kappa),
    )


def binomial_series_coefficient(j: int, alpha: float) -> float:
    """c_alpha(j): the coefficient of z^j in (1-z)^(-alpha).

    Equals prod_{l=1..j} (alpha+l-1)/l; an exact binomial coefficient when
    alpha is a positive integer.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if j < 0:
        raise ValueError(f"j must be nonnegative, got {j}")
    if float(alpha).is_integer():
        return float(math.comb(j + int(alpha) - 1, j))
    value = 1.0
    for l in range(1, j + 1):
        value *= (alpha + l - 1) / l
    return value


def divisor_values(n, alpha: float, table: PrimeTable, passes=None) -> np.ndarray:
    """d_alpha at every index of the array `n`, as float64; `passes` as in `multiplicative`.

    d_alpha is the multiplicative coefficient sequence of the alpha-th zeta power:
    d_alpha(p^e) = c_alpha(e); for integer alpha it counts ordered alpha-tuples of
    positive integers with product n.
    """
    return multiplicative(n, table, lambda e: binomial_series_coefficient(e, alpha), passes=passes)


def divisor_weight_prime_power(j: int, alpha: float) -> float:
    """The one-variable weight c_floor(alpha)(j) * (alpha/floor(alpha))^j, alpha >= 1."""
    if alpha < 1:
        raise ValueError(f"weight defined only for alpha >= 1, got {alpha}")
    m = math.floor(alpha)
    return binomial_series_coefficient(j, m) * (alpha / m) ** j


def divisor_weight_values(n, alpha: float, table: PrimeTable, passes=None) -> np.ndarray:
    """Phi_alpha(n) = d_m(n) * (alpha/m)^Omega(n), m = floor(alpha), at every index of `n`; alpha >= 1.

    Multiplicative; agrees with d_alpha(n) when alpha is an integer or n is
    square-free, and has the same average order as d_alpha in general. Folded
    as (alpha/m)^Omega(n), then times c_m(e) per p^e || n. Both folds read one
    factoring: `passes` as in `multiplicative`, or else `factoring` per block of indices.
    """
    if alpha < 1:
        raise ValueError(f"weight defined only for alpha >= 1, got {alpha}")
    n = np.asarray(n, dtype=np.int64)
    if passes is None:
        # the result and the blocks' results it is joined from
        check_memory(16 * n.size, f"weights of {n.size} indices")
        blocks = [n[lo : lo + _BLOCK] for lo in range(0, n.size, _BLOCK)] or [n]
        return np.concatenate([divisor_weight_values(b, alpha, table, factoring(b, table)) for b in blocks])
    m = math.floor(alpha)
    big_omega = multiplicative(n, table, lambda e: e, np.add, passes=passes)
    ratio_powers = np.array([(alpha / m) ** j for j in range(int(big_omega.max(initial=0)) + 1)])
    return multiplicative(
        n, table, lambda e: binomial_series_coefficient(e, m), start=ratio_powers[big_omega], passes=passes
    )


def average_order_factor(x: float, alpha: float) -> float:
    """G_alpha(x) = (1-x)^alpha * (1 - (alpha/floor(alpha)) x)^(-floor(alpha)).

    The local factor whose Euler product over x=1/p gives the constant in the
    average order of Phi_alpha. Defined for 0 <= x < floor(alpha)/alpha; equal
    to 1 identically when alpha is an integer.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    m = math.floor(alpha)
    if not 0 <= x < m / alpha:
        raise ValueError(f"x={x} outside [0, {m / alpha})")
    if alpha == m:
        return 1.0
    return (1 - x) ** alpha * (1 - (alpha / m) * x) ** (-m)


@dataclass(frozen=True)
class EulerProductValue:
    """A truncated product over primes with a certified tail bound.

    log_value is the fsum of the logs of the local factors, and value its
    exponential; products such as the large-k pseudomoment constants underflow
    double precision, where value is 0.0 and log_value stays finite.
    tail_bound bounds |log(true/value)|.
    """

    value: float
    log_value: float
    prime_limit: int
    tail_bound: float


def euler_product(
    local_log: Callable[[int], float],
    prime_limit: int,
    tail_exponent: float,
    decay_constant: float = 1.0,
    table: PrimeTable | None = None,
) -> EulerProductValue:
    """prod_{p <= prime_limit} exp(local_log(p)): the fsum of the local factors' logs.

    `local_log(p)` is the logarithm of the local factor at p, written with log1p
    where the factor is near 1, and must be finite. The caller promises
    |local_log(p)| <= decay_constant * p^(-tail_exponent) for p > prime_limit;
    the tail bound then follows from the integral test:
    sum_{n > L} n^(-e) <= L^(1-e)/(e-1).
    """
    if prime_limit < 2:
        raise ValueError(f"prime_limit must be >= 2, got {prime_limit}")
    if tail_exponent <= 1:
        raise ValueError(f"tail_exponent must exceed 1, got {tail_exponent}")
    if decay_constant < 0:
        raise ValueError(f"decay_constant must be nonnegative, got {decay_constant}")
    if table is not None and table.limit >= prime_limit:
        primes = table.primes[table.primes <= prime_limit]
    else:
        primes = sieve_primes(prime_limit).primes
    logs = []
    for p in primes.tolist():
        v = local_log(p)
        if not math.isfinite(v):
            raise ValueError(f"log of the local factor at p={p} is {v}; must be finite")
        logs.append(v)
    tail = decay_constant * prime_limit ** (1 - tail_exponent) / (tail_exponent - 1)
    log_value = math.fsum(logs)
    return EulerProductValue(math.exp(log_value), log_value, prime_limit, tail)


def _times_exp(prod: EulerProductValue, log_factor: float) -> EulerProductValue:
    """`prod` times exp(log_factor): the same primes and tail bound."""
    log_value = prod.log_value + log_factor
    return EulerProductValue(math.exp(log_value), log_value, prod.prime_limit, prod.tail_bound)


def average_order_constant(
    alpha: float, prime_limit: int = 100_000, table: PrimeTable | None = None
) -> EulerProductValue:
    """prod_p G_alpha(1/p): the constant in (1/x) sum_{n<=x} Phi_alpha(n) ~ C (log x)^(alpha-1) / Gamma(alpha).

    Well-defined since 1/p <= 1/2 < floor(alpha)/alpha for every alpha >= 1.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if prime_limit < 3:
        raise ValueError("prime_limit must be >= 3")
    # |log G_alpha(x)| <= alpha * x^2 / (1 - 2x) for x <= 1/(L+1)
    decay = alpha / (1 - 2 / (prime_limit + 1))
    return euler_product(
        lambda p: math.log(average_order_factor(1 / p, alpha)),
        prime_limit,
        tail_exponent=2.0,
        decay_constant=decay,
        table=table,
    )


def pseudomoment_ratio_bounds(
    k: float, prime_limit: int = 100_000, table: PrimeTable | None = None
) -> tuple[EulerProductValue, EulerProductValue]:
    """Asymptotic upper and lower constants bounding Psi_k(N) / (log N)^(k^2), k >= 1.

    upper = Gamma(k+1)^(-k) * prod_p (1-1/p)^(k^2) (1 - (k/floor(k)) / p)^(-k*floor(k))
    lower = Gamma(lk+1)^(-k/l) * prod_p (1-1/p)^(k^2) (1 + lk/p)^(k/l),  l = floor(2k)

    Both are limits as N grows, not finite-N brackets. For integer k the two
    terms of each upper local log are the same float, so the upper product is
    exactly 1 at every truncation, with tail bound 0.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    fk = math.floor(k)
    c = k / fk
    ksq = k * k
    L = prime_limit
    if table is None or table.limit < L:  # one table for both products
        table = sieve_primes(L)
    # |log(1-x)+x| <= x^2/(2(1-x)); the linear terms cancel exactly
    upper_decay = 0.0 if c == 1 else ksq / (2 * (1 - 1 / L)) + k * fk * c * c / (2 * (1 - c / L))
    upper = euler_product(
        lambda p: ksq * math.log1p(-1 / p) - k * fk * math.log1p(-c / p), L, 2.0, upper_decay, table
    )

    l2k = math.floor(2 * k)
    lower_decay = ksq / (2 * (1 - 1 / L)) + l2k * k**3 / 2
    lower = euler_product(
        lambda p: ksq * math.log1p(-1 / p) + (k / l2k) * math.log1p(l2k * k / p), L, 2.0, lower_decay, table
    )
    return (
        _times_exp(upper, -k * math.lgamma(k + 1)),
        _times_exp(lower, -(k / l2k) * math.lgamma(l2k * k + 1)),
    )


def pseudomoment_leading_factor(
    k: int, prime_limit: int = 100_000, table: PrimeTable | None = None
) -> EulerProductValue:
    """The arithmetic factor prod_p (1-1/p)^(k^2) * sum_j c_k(j)^2 p^(-j) for integer k >= 1.

    This is the arithmetic part of the leading pseudomoment constant; at k=1 it
    is 1, at k=2 it equals 6/pi^2. Euler's transformation of the hypergeometric
    series 2F1(k, k; 1; x) = sum_j c_k(j)^2 x^j gives the local factor in closed
    form, (1-x)^((k-1)^2) * sum_{j<k} C(k-1, j)^2 x^j at x = 1/p, and the
    polynomial is evaluated in integers, so no k overflows it.
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"k must be a positive integer, got {k}")
    k = int(k)
    if prime_limit <= 2 * k * k:
        raise ValueError(f"prime_limit must exceed 2*k^2 = {2 * k * k} for a certified tail")
    ksq = k * k
    m = k - 1
    coeffs = [math.comb(m, j) ** 2 for j in range(k)]

    def local_log(p: int) -> float:
        # p^m times the polynomial at 1/p, by Horner in integers
        whole = 0
        for a in coeffs:
            whole = whole * p + a
        try:
            log_poly = math.log1p((whole - p**m) / p**m)
        except OverflowError:  # the polynomial passes the float range; no cancellation left
            log_poly = math.log(whole) - m * math.log(p)
        return m * m * math.log1p(-1 / p) + log_poly

    L = prime_limit
    decay = k**4 / (1 - ksq / L) + ksq / (2 * (1 - 1 / L))
    return euler_product(local_log, prime_limit, 2.0, decay, table=table)


def omega_sieve(x: int, table: PrimeTable) -> np.ndarray:
    """Omega(n) for all 0 <= n <= x as a uint8 array (Omega(0)=Omega(1)=0)."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > table.limit:
        raise SieveLimitError(f"{x} exceeds sieve limit {table.limit}")
    omega = np.zeros(x + 1, dtype=np.uint8)
    omega[1:] = multiplicative(np.arange(1, x + 1), table, lambda e: e, np.add)
    return omega


def divisor_weight_sum(x: int, alpha: float, table: PrimeTable) -> float:
    """sum_{n<=x} Phi_alpha(n), from the Phi_alpha values of the whole range."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > table.limit:
        raise SieveLimitError(f"{x} exceeds sieve limit {table.limit}")
    return float(np.sum(divisor_weight_values(np.arange(1, x + 1), alpha, table)))


def omega_class_counts(x: int, table: PrimeTable) -> np.ndarray:
    """N(x, m) = #{n <= x : Omega(n) = m} for m = 0 .. max, as an int64 array.

    The counts partition {1, ..., x}: they sum to x, and N(x, 0) = 1.
    """
    omega = omega_sieve(x, table)
    return np.bincount(omega[1:]).astype(np.int64)
