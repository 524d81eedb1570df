"""An independent arithmetic oracle for the tests: factoring by trial division.

Nothing here reads the prime table or the factoring kernel it is meant to
check. The multiplicative functions fold in the library's order (ascending
primes, products from 1.0, Phi_alpha from (alpha/m)^Omega) over the per-exponent
values of `binomial_series_coefficient`, so they agree with the kernel bit for
bit, not only to rounding.

It also keeps the random polynomials the fuzz corpus drew from a numpy Generator
before it took its draws from the engine's splitmix64 stream: tests that need
fixed supports, and whose goldens were pinned on them, draw from these.
"""

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

from dirichlet_hardy.arith import binomial_series_coefficient
from dirichlet_hardy.dseries import DirichletPolynomial
from dirichlet_hardy.norms import DiscPolynomial


def factor(n):
    """[(p, e)] with p^e exactly dividing n, in ascending p, by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            out.append((q, e))
        q += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def primes_upto(limit):
    """The primes p <= limit, ascending, by trial division."""
    return tuple(n for n in range(2, limit + 1) if all(n % d for d in range(2, math.isqrt(n) + 1)))


def prime_position(p):
    """0-based position of the prime p among all primes (2 is at 0)."""
    return bisect_left(primes_upto(1 << p.bit_length()), p)


def big_omega(n):
    """Omega(n): the prime factors of n counted with multiplicity."""
    return sum(e for _, e in factor(n))


def mobius(n):
    fac = factor(n)
    return 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)


def kappa(n):
    """The Bohr exponent vector of n, truncated after its last nonzero entry (kappa(1) == ())."""
    fac = factor(n)
    out = [0] * (prime_position(fac[-1][0]) + 1 if fac else 0)
    for p, e in fac:
        out[prime_position(p)] = e
    return tuple(out)


def d_alpha(n, alpha):
    """The generalized divisor function: d_alpha(p^e) = c_alpha(e), multiplicative."""
    d = 1.0
    for _, e in factor(n):
        d *= binomial_series_coefficient(e, alpha)
    return d


def phi_alpha(n, alpha):
    """The hybrid weight d_m(n) (alpha/m)^Omega(n) with m = floor(alpha), alpha >= 1."""
    m = math.floor(alpha)
    w = (alpha / m) ** big_omega(n)
    for _, e in factor(n):
        w *= binomial_series_coefficient(e, m)
    return w


def bohr_lift(coefficients):
    """The Bohr lift of {n: a_n}: a dict from kappa(n) to a_n."""
    return {kappa(n): c for n, c in coefficients.items()}


def random_dirichlet(rng, max_support, max_index):
    """Standard complex normal coefficients on a random support, drawn from the Generator `rng`."""
    size = min(int(rng.integers(1, max_support + 1)), max_index)
    indices = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return DirichletPolynomial({int(n): complex(v) for n, v in zip(indices, values)})


def random_disc(rng, max_degree):
    """A disc polynomial of random degree with standard complex normal coefficients, drawn from `rng`."""
    degree = int(rng.integers(0, max_degree + 1))
    return DiscPolynomial(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
