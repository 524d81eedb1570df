"""An independent arithmetic oracle for the tests: factoring by trial division.

Nothing here reads the prime table or the factoring kernel it is meant to
check. The multiplicative functions fold in the library's order (ascending
primes, products from 1.0, Phi_alpha from (alpha/m)^Omega) over the per-exponent
values of `binomial_series_coefficient`, so they agree with the kernel bit for
bit, not only to rounding.

It also keeps the random polynomials the fuzz corpus drew from a numpy Generator
before it took its draws from the engine's splitmix64 stream: tests that need
fixed supports, and whose goldens were pinned on them, draw from these. And it
keeps the Bohr-lift plan as the engine built it with numpy's sort and unique
kernels, on trial division, as the reference for the plan it builds without them.
"""

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

from dirichlet_hardy.arith import binomial_series_coefficient
from dirichlet_hardy.dseries import DirichletPolynomial
from dirichlet_hardy.norms import DiscPolynomial, _draw, _LiftPlan


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


@lru_cache(maxsize=None)
def least_prime(n):
    """The least prime factor of n by trial division, and 1 for n = 1."""
    return factor(n)[0][0] if n > 1 else 1


def lift_plan(f, *parts):
    """`norms._lift_plan(f, table, *parts)` built by sorting, on trial division.

    The support and 1, each with its Omega, are closed under n -> spf(n) and n -> n/spf(n)
    by rounds of np.unique that keep the Omega of each node's first entry; a stable argsort
    of Omega orders the slots, with the primes in `_draw` order, another argsort inverts
    it, and each member's terms are sorted by slot.
    """

    def merged(n, omega):
        # the distinct n, ascending, each with the Omega of its first entry
        n, first = np.unique(n, return_index=True)
        return n, omega[first]

    def spf(n):
        return np.array([least_prime(int(m)) for m in n], dtype=np.int64)

    nodes, omega = merged(np.array([1, *f.support], dtype=np.int64),
                          np.array([0, *map(big_omega, f.support)], dtype=np.int64))
    # node 1, its own spf and cofactor, is the first entry of its value, so it keeps Omega 0
    while (grown := merged(np.concatenate((nodes, spf(nodes), nodes // spf(nodes))),
                           np.concatenate((omega, np.ones_like(omega), omega - 1))))[0].size > nodes.size:
        nodes, omega = grown
    order = np.argsort(omega, kind="stable")
    primes = nodes[order[1 : 1 + (omega == 1).sum()]]
    positions = np.array([prime_position(int(p)) for p in primes], dtype=np.int64)
    draw = _draw(positions)
    order[1 : 1 + positions.size] = order[1 + np.searchsorted(positions, draw.columns)]
    slot, n = np.argsort(order), nodes[order]  # nodes[i] sits in slot[i]; slot r holds n[r]
    left, right = slot[np.searchsorted(nodes, spf(n))], slot[np.searchsorted(nodes, n // spf(n))]
    bounds = np.searchsorted(omega[order], np.arange(2, omega.max() + 2)).tolist()
    members = []
    for g in (f, *parts):
        slots = slot[np.searchsorted(nodes, np.array(g.support, dtype=np.int64))]
        coeffs = np.array([g.coeff(m) for m in g.support], dtype=np.complex128)
        by_slot = np.argsort(slots)
        slots, coeffs = slots[by_slot], coeffs[by_slot]
        members.append((coeffs.real.copy(), coeffs.imag.copy() if coeffs.imag.any() else None,
                        None if slots.size == nodes.size else slots))
    layers = [(lo, hi, np.r_[left[lo:hi], right[lo:hi]]) for lo, hi in zip(bounds, bounds[1:])]
    gathered = max((slots.size for _, _, slots in members if slots is not None), default=0)
    complex_sum = any(im is not None for _, im, _ in members)
    return _LiftPlan(
        draw=draw,
        size=nodes.size,
        layers=layers,
        members=members,
        scratch=max(max((pairs.size for _, _, pairs in layers), default=0), gathered + complex_sum),
    )
