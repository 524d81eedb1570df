"""Norm engines for Dirichlet polynomials and one-variable disc polynomials.

Exact routes: the l2 norm from coefficients, and even-exponent norms via
convolution (the 2k-norm of f is the l2 norm of f^k to the power 1/k).
Everything else is Monte Carlo over random completely multiplicative unit
coefficients (Steinhaus variables) from a counter-based generator. The angle of
prime p_j in sample i depends only on (seed, i, j), so the engine draws angles only
for the primes that divide some index of the support, and `steinhaus_sample` gives
the engine's bits for the primes p_1..p_J. An angle is the top half k of a splitmix64
hash, so z(p_j) = exp(2 pi i k 2^-32) is uniform on the 2^32-th roots of unity; even-p
estimates stay unbiased, as each prime's exponents in |F|^2k lie far below 2^32. Three
tables give the phase from k's digits. The lift F = sum a_n z(n) keeps
one row per node n and one column per point: z(n) = z(spf n) z(n/spf n) fills the
rows layer by layer, in slot order (Omega(n), n). F is then one sequential sum over
the support in slot order, acc = acc + Re(a_n) z(n), with the imaginary parts of the
coefficients summed the same way apart and combined at the end; the order depends only
on the support. So |F| for sample i depends only on (seed, i), whatever the block of
points evaluated together or the worker count. The block is the one unit of work: a block's
angles are hashed, turned into phases and lifted in one flat workspace per worker, and the
block halves until the run fits the memory cap. Neither the angles nor the
node values depend on the rest of the plan, so polynomials whose supports lie inside
f's (its partial sums, its homogeneous parts) are evaluated on f's nodes in the same
pass, each with the bits of its own run. Sample means are reduced by a halving fold.

One-variable quasi-norms are computed by trapezoidal quadrature on equispaced
circle nodes; this is exact up to rounding for even p and spectrally accurate
otherwise as long as the polynomial has no zeros near the circle. The nodes are
built once per node count, and one evaluation of |g| on them serves a whole
p grid, each p with the bits of its own run.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

# factorize is unused here; perfbench's tracer tests rebind and restore it in this module
from .arith import PrimeTable, factorize, multiplicative
from .dseries import DirichletPolynomial, dirichlet_power
from .errors import SieveLimitError, check_memory, memory_cap_bytes

# node values of the points evaluated together, sized to stay in cache. The block is the one unit
# of work: each worker allocates one flat workspace per call and hashes, phases and lifts each
# block of its share in views of it. Drawing an 8192-sample chunk of angles at once (7 MB at
# N = 600) raised glibc's dynamic mmap threshold, without which freed block arrays go back to the
# OS: a variant that drew per block into fresh arrays took 370K-760K minor faults per 200
# fuzz_sparse ops against 33K and ran about 20% slower. One workspace allocates nothing in the
# loop instead, and needs no such threshold: over 96 in-process ops on a 2-vCPU host, mc_dense
# took 405 minor faults against 24K-27K with the chunk and fuzz_sparse 2.2K against 32K, and the
# benchmark's mc_dense peak RSS fell from 50 to 39 MB
_BLOCK_BYTES = 1 << 20

# splitmix64 increments (odd 64-bit constants)
_GAMMA_SAMPLE = np.uint64(0x9E3779B97F4A7C15)
_GAMMA_PRIME = np.uint64(0xD1B54A32D192ED03)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _turns(count: int, period: int) -> np.ndarray:
    """exp(2 pi i j / period) for j < count, read-only."""
    z = np.exp(2j * np.pi * np.arange(count) / period)
    z.flags.writeable = False
    return z


# the factors of a 32-bit angle's three digits, 11, 11 and 10 bits from the top: 80 KB in all
_TURN_A, _TURN_B, _TURN_C = _turns(2048, 2**11), _turns(2048, 2**22), _turns(1024, 2**32)


def _mix64(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64's finalizer, in place, with `scratch` (shaped like x) for the shifted copies."""
    t = np.empty_like(x) if scratch is None else scratch
    # uint64 array arithmetic (0-d arrays too, unlike numpy scalars) wraps mod 2^64 silently
    for shift, mult in ((30, _M1), (27, _M2)):
        x ^= np.right_shift(x, np.uint64(shift), out=t)
        x *= mult
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


@functools.lru_cache(maxsize=1)
def _seed_key(seed: int) -> int:
    """The hashed seed, splitmix64's finalizer of seed mod 2^64; every block of a run reuses it."""
    return int(_mix64(np.array(seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)))


def _uniforms(
    seed: int,
    first_sample: int,
    count: int,
    columns: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """32-bit angles k (the angle k 2^-32 turns) for samples [first_sample, first_sample+count).

    `columns` holds 0-based prime positions (column j is the prime p_{j+1}). Entry
    (i, j) is the top 32 bits of a splitmix64 hash of (seed, first_sample + i,
    columns[j]), so any partition of the sample range, or any choice of columns,
    reproduces the same values. The result is the int64 transpose of a C-ordered
    (columns, count) array: each prime's angles are contiguous. That array is `out` if
    given; `scratch`, a flat uint64 array of at least max(len(columns), 2) * count entries,
    then holds the temporaries, so the draw allocates nothing of the count's size.
    """
    width = len(columns)
    h = np.empty((width, count), dtype=np.uint64) if out is None else out.view(np.uint64)
    if scratch is None:
        scratch = np.empty(max(width, 2) * count, dtype=np.uint64)
    # the sample keys: the seed's key plus (first_sample + 1 + i) gamma, mod 2^64, as a running sum
    keys = scratch[:count]
    keys.fill(_GAMMA_SAMPLE)
    keys[:1] = (_seed_key(seed) + (first_sample + 1) * int(_GAMMA_SAMPLE)) & 0xFFFFFFFFFFFFFFFF
    keys.cumsum(out=keys)
    np.copyto(h, _mix64(keys, scratch[count : 2 * count]))
    # (j + 1) gamma for each column j, added elementwise: a broadcasting add takes numpy's
    # iterator buffers (64 KB an operand), a broadcasting copy does not
    t = scratch[: width * count].reshape(width, count)
    np.copyto(t, ((np.asarray(columns, dtype=np.uint64) + np.uint64(1)) * _GAMMA_PRIME)[:, None])
    h += t
    _mix64(h, t)
    h >>= np.uint64(32)
    return h.view(np.int64).T


def _phases(
    k: np.ndarray,
    out: np.ndarray | None = None,
    digit: np.ndarray | None = None,
    factor: np.ndarray | None = None,
) -> np.ndarray:
    """exp(2 pi i k 2^-32) for int64 angles 0 <= k < 2^32, elementwise, into `out` if given.

    With a, b and c the top 11, the next 11 and the low 10 bits of k, the phase is the
    product exp(2 pi i a 2^-11) exp(2 pi i b 2^-22) exp(2 pi i c 2^-32) of table factors;
    the first goes straight into `out` (mode="raise" would buffer it). `digit` (int64) and
    `factor` (complex128), shaped like k, hold the temporaries if given. Against mpmath the
    error stays below 7.4 2^-53 (libm's exp(2j*pi*k*2^-32) reaches about 6.4 2^-53), and
    the tests hold both to 16 2^-53.
    """
    digit = np.right_shift(k, 21, out=digit)
    z = _TURN_A.take(digit, out=out, mode="clip")
    np.right_shift(k, 10, out=digit)
    digit &= 0x7FF
    z *= _TURN_B.take(digit, out=factor, mode="clip")
    np.bitwise_and(k, 0x3FF, out=digit)
    z *= _TURN_C.take(digit, out=factor, mode="clip")
    return z


def steinhaus_uniforms(seed: int, first_sample: int, count: int, prime_count: int) -> np.ndarray:
    """Angles in [0,1), in turns, for samples [first_sample, first_sample+count) and primes 1..prime_count.

    The engine's stream: column j holds k 2^-32 for the 32-bit angle k the engine draws
    for the prime p_{j+1}, so the angles are uniform on the 2^32-th roots of unity.
    """
    return _uniforms(seed, first_sample, count, np.arange(prime_count)) * 2.0**-32


def pairwise_sum(values: np.ndarray) -> float:
    """Sum by a halving fold, a[:h] += a[n-h:n], whose shape depends only on the length.

    Used for all Monte Carlo reductions: the result is bit-identical however
    the input array was produced.
    """
    a = np.array(values, dtype=np.float64)
    n = len(a)
    if not n:
        return 0.0
    while n > 1:
        h = n // 2
        a[:h] += a[n - h : n]
        n -= h
    return float(a[0])


@dataclass(frozen=True)
class NormEstimate:
    """A quasi-norm value with its method and, for Monte Carlo, its precision.

    power_mean is the p-th power mean the engine computed, and `value` its p-th root;
    readers take the mean from here, not from value**p, which would round it again.
    std_error is the standard error of the power mean (the quantity the sampler
    actually averages); the error of `value` itself follows by the delta method,
    see `value_std_error`.
    """

    p: float
    value: float
    power_mean: float
    method: str
    samples: int | None = None
    std_error: float = 0.0
    seed: int | None = None

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
    return NormEstimate(p=2.0, value=math.sqrt(total), power_mean=total, method="exact_l2")


def even_norm_exact(f: DirichletPolynomial, k: int) -> NormEstimate:
    """The exact 2k-quasi-norm via the l2 norm of the k-th convolution power."""
    if k < 1 or int(k) != k:
        raise ValueError(f"k must be a positive integer, got {k}")
    k = int(k)
    total = math.fsum(abs(c) ** 2 for c in dirichlet_power(f, k).coefficients.values())
    return NormEstimate(p=2.0 * k, value=total ** (1.0 / (2 * k)), power_mean=total, method="exact_even")


class _LiftPlan(NamedTuple):
    """Node slots ordered by (Omega(n), n): 1, the primes used, then a slice per Omega layer."""

    columns: np.ndarray  # 0-based table positions of the primes used, ascending
    size: int  # number of nodes
    layers: list  # (lo, hi, spf slots then cofactor slots) for Omega = 2, 3, ...
    # f, then each part: (Re a_n, Im a_n or None if every a_n is real, slots or None if the
    # support is every node), each over the member's support in slot order
    members: list
    # complex entries per point that `_lift_values` needs beside the node rows and F: the
    # widest layer's two gathers, or the largest gathered member's rows with, when a member
    # is complex, its imaginary-part sum; the two are never alive together
    scratch: int


def _lift_plan(f: DirichletPolynomial, table: PrimeTable, *parts: DirichletPolynomial) -> _LiftPlan:
    """The nodes of the Bohr lift of f: its support closed under n -> spf(n) and n -> n/spf(n)."""
    if not all(g.coefficients.keys() <= f.coefficients.keys() for g in parts):
        raise ValueError("a part's support must lie inside the polynomial's support")
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
        columns=np.searchsorted(table.primes, nodes[omega == 1]),
        size=nodes.size,
        layers=layers,
        members=members,
        scratch=max(max((pairs.size for _, _, pairs in layers), default=0), gathered + complex_sum),
    )


def _lift_values(
    plan: _LiftPlan, Z: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """F = sum a_n z(n) of each member (row) at each point (column) of Z, whose rows are nodes.

    The caller writes z at the plan's primes into rows 1..P; z(n) = z(spf n) z(n/spf n)
    fills the other rows layer by layer. A member's F is the sequential sum over its
    support in slot order, acc = acc + Re(a_n) z(n), on the float view of the node rows
    (gathered first when the member skips nodes); a complex member sums Im(a_n) z(n) the
    same way and adds i times it. numpy's einsum on "i,ij->j" is that unfused loop in row
    order (the tests hold it to a Python loop bit for bit), and zero coefficients add
    nothing. No operation mixes columns, so a point's F does not depend on the points
    evaluated with it. F goes into `out` if given; `scratch`, a flat complex128 array of at
    least plan.scratch entries per point, holds the gathers if given.
    """
    width = Z.shape[1]
    F = np.empty((len(plan.members), width), dtype=np.complex128) if out is None else out
    if scratch is None:
        scratch = np.empty(plan.scratch * width, dtype=np.complex128)
    Z[0] = 1
    for lo, hi, pairs in plan.layers:
        factors = Z.take(pairs, axis=0, out=scratch[: pairs.size * width].reshape(-1, width), mode="clip")
        # the product stays out of place: an in-place variant changed a last bit
        np.multiply(factors[: hi - lo], factors[hi - lo :], out=Z[lo:hi])
    for row, (re, im, slots) in zip(F, plan.members):
        m = 0 if slots is None else slots.size * width
        rows = Z if slots is None else Z.take(slots, axis=0, out=scratch[:m].reshape(-1, width), mode="clip")
        rows = rows.view(np.float64)
        v = np.einsum("i,ij->j", re, rows, out=row.view(np.float64))
        if im is not None:
            b = np.einsum("i,ij->j", im, rows, out=scratch[m : m + width].view(np.float64))
            v[0::2] -= b[1::2]
            v[1::2] += b[0::2]
    return F


def _lift_at(plan: _LiftPlan, z: np.ndarray | Sequence[complex]) -> complex:
    """F at the single point whose values on the plan's primes are z."""
    Z = np.empty((plan.size, 1), dtype=np.complex128)
    Z[1 : 1 + plan.columns.size, 0] = z
    return complex(_lift_values(plan, Z)[0, 0])


def mc_norm_many(
    f: DirichletPolynomial,
    ps: Sequence[float],
    samples: int,
    seed: int,
    table: PrimeTable,
    workers: int = 1,
    parts: Sequence[DirichletPolynomial] = (),
) -> list[NormEstimate]:
    """Monte Carlo estimates of several quasi-norms from one shared sample stream.

    Draws `samples` independent Steinhaus samples (one angle per prime dividing
    some index of the support), evaluates |F| once per sample, and forms each
    p-th power mean from the same |F| values. Each of the `parts`, whose supports
    must lie inside f's, is evaluated from the same samples and nodes with the bits
    of its own run; the estimates are f's, then each part's, each in the order of
    `ps`. Deterministic for fixed (seed, samples), whatever the block or the worker
    count. The block of points evaluated together is halved until the run fits the
    memory cap; a run that fits at no block size is a ResourceLimitError.
    """
    ps = [float(p) for p in ps]
    for p in ps:
        if not 0 < p < math.inf:
            raise ValueError(f"p must be positive and finite, got {p}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    plan = _lift_plan(f, table, *parts)
    rows, primes = len(plan.members), plan.columns.size
    # a worker's workspace, in 16-byte entries per point of a block: the node rows, F, and one
    # area the stages take in turn: the phases' angles, digit and factor (2 entries a prime,
    # which also hold the hash's angles and temporaries, or 1 entry with no prime) and the
    # lift's gathers (plan.scratch)
    per_point = plan.size + rows + max(2 * primes, 1, plan.scratch)
    block = min(max(1, _BLOCK_BYTES // (16 * plan.size)), samples)

    def in_flight(block: int) -> int:
        return min(workers, -(-samples // block))

    def need(block: int) -> int:
        # the plan's arrays (at most 24 bytes a node for the slots and columns and 24 per member
        # for its coefficients and slots), 32 KB for the run's Python objects and numpy's call
        # temporaries, and |F| of every member over the run; beside them either the workspaces
        # of the workers in flight or, once those are freed, one member's |F|^p and deviations
        # with the copy the fold takes
        workspaces = in_flight(block) * 16 * block * per_point
        return (24 + 24 * rows) * plan.size + (1 << 15) + 8 * rows * samples + max(workspaces, 24 * samples)

    cap = memory_cap_bytes()
    while block > 1 and need(block) > cap:
        block //= 2
    check_memory(need(block), "Monte Carlo sampling")
    absF = np.empty((rows, samples), dtype=np.float64)
    busy = in_flight(block)

    def fill(worker: int) -> None:
        workspace = np.empty(block * per_point, dtype=np.complex128)
        stage = workspace[(plan.size + rows) * block :]

        def views(n: int) -> tuple:
            # for a block of n points: the node rows, F, and in the stage area the angles, the
            # hash's temporaries, the digit and the factor, each C-ordered
            ints = stage.view(np.int64)
            return (workspace[: plan.size * n].reshape(plan.size, n),
                    workspace[plan.size * block : plan.size * block + rows * n].reshape(rows, n),
                    ints[: primes * n].reshape(primes, n), stage.view(np.uint64)[primes * n :],
                    ints[primes * n : 2 * primes * n].reshape(primes, n),
                    stage[primes * n : 2 * primes * n].reshape(primes, n))

        full = views(block)
        for start in range(worker * block, samples, busy * block):
            n = min(block, samples - start)
            Z, F, angles, temporaries, digit, factor = full if n == block else views(n)
            _uniforms(seed, start, n, plan.columns, out=angles, scratch=temporaries)
            _phases(angles, out=Z[1 : 1 + primes], digit=digit, factor=factor)
            np.abs(_lift_values(plan, Z, out=F, scratch=stage), out=absF[:, start : start + n])

    if busy > 1:
        with ThreadPoolExecutor(max_workers=busy) as pool:
            list(pool.map(fill, range(busy)))
    else:
        fill(0)

    out = []
    for row in absF:
        for p in ps:
            x = row**p
            mean = pairwise_sum(x) / samples
            var = pairwise_sum((x - mean) ** 2) / (samples - 1)
            se = math.sqrt(var / samples)
            out.append(NormEstimate(p=p, value=mean ** (1.0 / p), power_mean=mean, method="monte_carlo",
                                    samples=samples, std_error=se, seed=seed))
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
    return SteinhausSample(values=_phases(_uniforms(seed, index, 1, np.arange(prime_count))[0]))


def evaluate_at_sample(
    f: DirichletPolynomial, sample: SteinhausSample, table: PrimeTable
) -> complex:
    """sum a_n z(n) with z(n) the multiplicative extension of the sampled z(p_j)."""
    plan = _lift_plan(f, table)
    z = sample.values
    if plan.columns.size and plan.columns[-1] >= z.size:
        raise ValueError(f"sample covers {z.size} primes but the support needs {plan.columns[-1] + 1}")
    return _lift_at(plan, z[plan.columns])


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


@functools.lru_cache(maxsize=1)
def _circle(nodes: int) -> np.ndarray:
    """The equispaced circle nodes exp(2 pi i k / nodes), k < nodes, read-only."""
    return _turns(nodes, nodes)


def disc_norm_many(f: DiscPolynomial, ps: Sequence[float], nodes: int = 4096) -> list[NormEstimate]:
    """Boundary quasi-norms for several p from one evaluation of |f| on the circle nodes.

    Each estimate, in the order of `ps`, is the p-th root of the mean of |f|^p over
    the equispaced nodes, with the bits of `disc_norm` at that p. For periodic
    integrands the trapezoidal rule is the plain node mean. With nodes > 2*degree
    the p=2 case is aliasing-free and matches the coefficient l2 norm to rounding.
    Every p and the node count are checked before f is evaluated.
    """
    ps = [float(p) for p in ps]
    for p in ps:
        if not 0 < p < math.inf:
            raise ValueError(f"p must be positive and finite, got {p}")
    if nodes < 4 * (f.degree + 1):
        raise ValueError(f"need at least {4 * (f.degree + 1)} nodes for degree {f.degree}")
    # the nodes, Horner's temporaries in `polyval` and |f|: traced at 64 bytes per node for
    # degree >= 1 and 90 for degree 0
    check_memory(96 * nodes, f"quadrature on {nodes} circle nodes")
    absf = np.abs(f(_circle(nodes)))
    out = []
    for p in ps:
        mean = float(np.mean(absf**p))
        out.append(NormEstimate(p=p, value=mean ** (1.0 / p), power_mean=mean, method="disc_quadrature"))
    return out


def disc_norm(f: DiscPolynomial, p: float, nodes: int = 4096) -> NormEstimate:
    """Boundary quasi-norm at one p; see `disc_norm_many`."""
    return disc_norm_many(f, [p], nodes)[0]


def dilate(f: DiscPolynomial, r: float) -> DiscPolynomial:
    """The dilation f(z) -> f(rz): coefficient a_j becomes a_j r^j.

    Contractive from the p- into the q-quasi-norm exactly when r <= sqrt(p/q).
    """
    if not 0 < r <= 1:
        raise ValueError(f"r must lie in (0, 1], got {r}")
    scale = r ** np.arange(f.coefficients.size)
    return DiscPolynomial(f.coefficients * scale)
