"""Norm engines for Dirichlet polynomials and one-variable disc polynomials.

Exact routes: the l2 norm from coefficients, and even-exponent norms via
convolution (the 2k-norm of f is the l2 norm of f^k to the power 1/k).
Everything else is Monte Carlo over random completely multiplicative unit
coefficients (Steinhaus variables) from a counter-based generator. The angle of
prime p_j in sample i depends only on (seed, i, j), so the engine draws angles only
for the primes that divide some index of the support, and `steinhaus_sample` gives
the engine's bits for the primes p_1..p_J. An angle is the top 22 bits k of a 32-bit half
of a splitmix64 hash: the prime at 0-based position j takes half j & 1 of the hash of
(seed, i, j >> 1), the top half for even j and the low half for odd j, so one hash serves
both primes of a pair. z(p_j) = exp(2 pi i k 2^-22) is uniform on the 2^22-th roots of
unity. Even-p estimates stay unbiased while each prime's exponent in |F|^2k is below
2^22, and at the fuzz grid's other p the grid moves E|1 + z|^p by at most 1.1e-10
relative, far below any standard error. Two tables of 2048 entries (64 KB) give the
phase from k's two 11-bit digits, read straight from the hash. The lift F = sum a_n z(n)
keeps one row per node n and one column per point, in one order: node 1, the primes by
position (the even positions ascending, which take their hashes' top halves, then the odd
ones ascending), then one slice per Omega layer in ascending n, which
z(n) = z(spf n) z(n/spf n) fills layer by layer. F is one sequential sum over the support
in that order: acc = acc + Re(a_n) z(n), with the imaginary parts of the coefficients
summed the same way apart and combined at the end. The order of a support's terms depends
only on the support, so |F| for sample i depends only on (seed, i), whatever the block of
points evaluated together or the worker count. Neither the angles nor the node values
depend on the rest of the plan, so polynomials whose supports lie inside f's (its partial
sums, its homogeneous parts) are evaluated on f's nodes in the same pass, each with the
bits of its own run.

`mc_norm_many` takes three steps. `_lift_plan` builds the nodes and the sum orders without
numpy's sort or unique kernels: the closure grows in a set, `sorted` orders it, each node's
Omega follows from its cofactor's, and the slots fill from one bucket per Omega.
`_abs_rows` returns |F| of every member at every sample, one row each: it mixes the run's
sample keys once, and each worker hashes, phases and lifts its share of equal blocks, of one
width halved until the run fits the memory cap and the last padded, in one flat workspace.
The widest block is the most points whose workspace and pair keys fit `_BLOCK_BYTES`.
Two stage objects run a block, `_Hash` (the splitmix64 hashes) and `_Lift` (the node rows
and F); each worker builds each once, with its views, and each call runs one block.
`_power_means` reduces a row of |F| to its estimates by a halving fold: it is the one
place Monte Carlo estimates are formed, so a change in how they are formed changes it
alone.

One-variable quasi-norms are computed by trapezoidal quadrature on equispaced
circle nodes; this is exact up to rounding for even p and spectrally accurate
otherwise as long as the polynomial has no zeros near the circle. The nodes are
built once per node count, and one evaluation of |g| on them serves a whole
p grid, each p with the bits of its own run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from . import errors

# factorize is unused here; perfbench's tracer tests rebind and restore it in this module
from .arith import PrimeTable, factorize
from .dseries import DirichletPolynomial, dirichlet_power
from .errors import SieveLimitError, check_memory, memory_cap_bytes

# the bytes (1.625 MiB) that the widest of a run's equal blocks may take in a worker's workspace
# and its hash's pair keys (`_point_size` bytes a point). Each worker allocates one flat
# workspace per call and hashes, phases and lifts each block of its share in views of it, so the
# loop allocates nothing: a variant that drew per block into fresh arrays took 370K-760K minor
# faults per 200 fuzz_sparse ops against 33K and ran about 20% slower. The workspace comes from
# glibc's heap, so one larger than the free holes earlier ops left grows the heap and peak RSS.
# Sized by 1 MB of node rows alone, the workspaces of the first 3000 fuzz_sparse plans (seed 1)
# took 1.30-2.78 MiB, median 1.72, and a one-term support ran its 20000 samples as one block;
# under this budget they take 0.84-1.62 MiB, median 1.60, and only a plan whose one point passes
# the budget (past about 100K nodes) runs a larger, one-point block. The widest blocks are 606,
# 180 and 106 points on Z_100, Z_350 and Z_600^1.5 (655, 187 and 109 by node rows) and
# 378-10000, median 715, on the fuzz plans (393-20000, median 770); `_abs_rows` took 0.97, 1.00
# and 0.96 times the node-row width's time on those Z_N^1.5 and 1.00 on six 64-term random
# supports (medians of 40 in-process alternations, 2-vCPU host)
_BLOCK_BYTES = 13 << 17

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


# the factors of a 22-bit angle's two 11-bit digits, the top one first: 64 KB in all
_TURN_A, _TURN_B = _turns(2048, 2**11), _turns(2048, 2**22)


# splitmix64's finalizer shifts
_S30, _S27, _S31 = (np.uint64(shift) for shift in (30, 27, 31))


def _mix64(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64's finalizer, in place, with `scratch` (shaped like x) for the shifted copies."""
    t = np.empty_like(x) if scratch is None else scratch
    # uint64 array arithmetic (0-d arrays too, unlike numpy scalars) wraps mod 2^64 silently
    x ^= np.right_shift(x, _S30, out=t)
    x *= _M1
    x ^= np.right_shift(x, _S27, out=t)
    x *= _M2
    x ^= np.right_shift(x, _S31, out=t)
    return x


def _sample_keys(seed: int, first_sample: int, count: int) -> np.ndarray:
    """The keys of samples [first_sample, first_sample + count), a uint64 array, mixed once.

    Sample i's key is splitmix64's finalizer of the hashed seed (the finalizer of seed mod
    2^64) plus (i + 1) gamma, mod 2^64, for any nonnegative first_sample. The finalizer runs
    on 4096 keys at a time, so its shifted copies take 32 KB however many keys there are.
    """
    mask = 0xFFFFFFFFFFFFFFFF
    hashed = int(_mix64(np.array(seed & mask, dtype=np.uint64)))
    keys = np.arange(1, count + 1, dtype=np.uint64)
    keys *= _GAMMA_SAMPLE
    keys += np.uint64((hashed + first_sample * int(_GAMMA_SAMPLE)) & mask)
    scratch = np.empty(min(count, 4096), dtype=np.uint64)
    for lo in range(0, count, 4096):
        _mix64(keys[lo : lo + 4096], scratch[: count - lo])
    return keys


class _Draw(NamedTuple):
    """Prime positions in order, with the hash rows that serve them."""

    columns: np.ndarray  # the distinct positions: the even ones ascending, then the odd ones ascending
    # the hashed pairs j >> 1, one hash row each: the even columns' pairs in their order, then
    # those of the odd columns whose partner j - 1 is absent
    pairs: np.ndarray
    rows: np.ndarray  # each column's hash row: pairs[rows] == columns >> 1
    top: int  # the number of even columns, which take the top halves of rows 0 .. top - 1


def _draw(columns: np.ndarray | Sequence[int]) -> _Draw:
    """The order of 0-based prime positions: column j is half j & 1 of the hash of pair j >> 1."""
    # in plain Python, as fast as numpy on a plan's few hundred positions: a vectorized order's
    # first calls in a process mapped in about 0.7 MB more of numpy's code, which an mc norm
    # command's peak RSS showed
    used = sorted(set(np.asarray(columns, dtype=np.int64).tolist()), key=lambda j: (j & 1, j))
    row: dict[int, int] = {}  # pair -> hash row, in row order
    rows = [row.setdefault(j >> 1, len(row)) for j in used]
    return _Draw(*(np.array(x, dtype=np.int64) for x in (used, list(row), rows)),
                 sum(1 for j in used if not j & 1))


class _Hash:
    """`_uniforms`' hashes of the given pairs for blocks of `count` samples, one block a call.

    Building it makes the pair keys, which no block's samples change, and every view a call
    takes. With H the number of pairs (`_draw(columns).pairs` for a set of columns), `out`
    is the C-ordered uint64 (H, count) array for the hashes and `scratch` a flat uint64
    array of at least H * count entries for their shifted copies, each allocated if not
    given. A call allocates nothing.
    """

    def __init__(self, pairs: np.ndarray, count: int, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None):
        width = pairs.size
        self.hashes = np.empty((width, count), dtype=np.uint64) if out is None else out
        self.scratch = (np.empty_like(self.hashes) if scratch is None
                        else scratch[: width * count].reshape(width, count))
        # (pair + 1) gamma' for each hash row, across the block: a block's hashes then take one plain
        # add, as a broadcasting add takes numpy's iterator buffers (64 KB an operand)
        self.keys = np.empty((width, count), dtype=np.uint64)
        np.copyto(self.keys, ((pairs.astype(np.uint64) + np.uint64(1)) * _GAMMA_PRIME)[:, None])

    def __call__(self, samples: np.ndarray) -> np.ndarray:
        """The hashes of the block whose `_sample_keys` are `samples`, in the `out` array."""
        np.copyto(self.hashes, samples)
        self.hashes += self.keys
        return _mix64(self.hashes, self.scratch)


def _uniforms(seed: int, first_sample: int, count: int, columns: np.ndarray) -> np.ndarray:
    """The splitmix64 hashes that hold the angles of samples [first_sample, first_sample+count).

    `columns` holds 0-based prime positions (column j is the prime p_{j+1}). Column j's
    22-bit angle k (the angle k 2^-22 turns) is the top 22 bits of half j & 1 of the hash
    of (seed, sample, j >> 1): of the top 32 bits for even j, of the low 32 bits for odd
    j. So each pair of positions is hashed once, and any partition of the sample range, or
    any choice of columns, reproduces the same values. The result is the C-ordered uint64
    (H, count) array of the hashes of the H pairs, in `_draw(columns).pairs` order: each
    pair's hashes are contiguous. The Monte Carlo engine runs the same `_Hash` on its own
    arrays, each block on a slice of the run's `_sample_keys`.
    """
    return _Hash(_draw(columns).pairs, count)(_sample_keys(seed, first_sample, count))


# the shifts to an angle's two digits in a hash's top half and low half, and the digits' mask
_A_TOP, _B_TOP, _A_LOW, _B_LOW = (np.uint64(shift) for shift in (53, 42, 21, 10))
_M11 = np.uint64(0x7FF)


def _angles(seed: int, first_sample: int, count: int, columns: np.ndarray | Sequence[int]) -> np.ndarray:
    """The 22-bit angles k of the given columns, a uint64 (count, len(columns)) array; see `_uniforms`."""
    draw = _draw(columns)
    h = _uniforms(seed, first_sample, count, draw.columns)
    # an angle ends at its low digit b, so it starts at b's shift
    k = np.concatenate((h[: draw.top] >> _B_TOP, (h[draw.rows[draw.top :]] & 0xFFFFFFFF) >> _B_LOW))
    order = np.argsort(draw.columns)
    return k[order[np.searchsorted(draw.columns[order], columns)]].T


def _phases(top: np.ndarray, low: np.ndarray, out: np.ndarray | None = None,
            digit: np.ndarray | None = None, factor: np.ndarray | None = None) -> np.ndarray:
    """exp(2 pi i k 2^-22) for the angles k in the top halves of `top`, then the low halves of `low`.

    `top` and `low` are uint64 hashes, shaped alike past their first axis, along which the
    result stacks them; a half's angle k is its top 22 bits, so an angle k is the low half
    k << 10. With a and b the top 11 and the next 11 bits of k, read straight from the
    hash, the phase is the product exp(2 pi i a 2^-11) exp(2 pi i b 2^-22) of two table
    factors, so the phase of a hash's half is the phase of its angle bit for bit. The first
    factor goes straight into `out` (mode="raise" would buffer it); `digit` (uint64) and
    `factor` (complex128), shaped like the result, hold the temporaries if given. Over all
    2^22 angles the error stays below 7.6 2^-53 (libm's exp(2j*pi*k*2^-22) reaches about
    6.7 2^-53), and the tests hold both to 16 2^-53 against mpmath.
    """
    if digit is None:
        digit = np.empty((len(top) + len(low), *low.shape[1:]), dtype=np.uint64)
    index, upper, lower = digit.view(np.int64), digit[: len(top)], digit[len(top) :]
    # a top half's a needs no mask
    np.right_shift(top, _A_TOP, out=upper)
    np.right_shift(low, _A_LOW, out=lower)
    lower &= _M11
    z = _TURN_A.take(index, out=out, mode="clip")
    np.right_shift(top, _B_TOP, out=upper)
    np.right_shift(low, _B_LOW, out=lower)
    digit &= _M11
    z *= _TURN_B.take(index, out=factor, mode="clip")
    return z


def steinhaus_uniforms(seed: int, first_sample: int, count: int, prime_count: int) -> np.ndarray:
    """Angles in [0,1), in turns, for samples [first_sample, first_sample+count) and primes 1..prime_count.

    The engine's stream: column j holds k 2^-22 for the 22-bit angle k the engine draws
    for the prime p_{j+1}, the top 22 bits of half j & 1 of the hash of pair j >> 1 (see
    `_uniforms`), so the angles are uniform on the 2^22-th roots of unity.
    """
    for name, value in (("first_sample", first_sample), ("count", count), ("prime_count", prime_count)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    return _angles(seed, first_sample, count, np.arange(prime_count)) * 2.0**-22


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


def l2_norm(f: DirichletPolynomial) -> NormEstimate:
    """sqrt of the sum of squared coefficient moduli."""
    total = math.fsum(abs(c) ** 2 for c in f.coefficients.values())
    return NormEstimate(p=2.0, value=math.sqrt(total), power_mean=total, method="exact_l2")


def even_norm_exact(f: DirichletPolynomial, k: int) -> NormEstimate:
    """The exact 2k-quasi-norm via the l2 norm of the k-th convolution power.

    A power mean past the float range is an OverflowError.
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"k must be a positive integer, got {k}")
    k = int(k)
    total = math.fsum(abs(c) ** 2 for c in dirichlet_power(f, k).coefficients.values())
    if not math.isfinite(total):
        raise OverflowError(f"the p = {2 * k} power mean passes the float range")
    return NormEstimate(p=2.0 * k, value=total ** (1.0 / (2 * k)), power_mean=total, method="exact_even")


class _LiftPlan(NamedTuple):
    """Node slots in sum order: 1, the primes used in `_draw` order, then a slice per Omega layer, ascending in n."""

    draw: _Draw  # the primes used, as 0-based table positions in slot order, with their hash rows
    size: int  # number of nodes
    layers: list  # (lo, hi, spf slots then cofactor slots) for Omega = 2, 3, ...
    # f, then each part: (Re a_n, Im a_n or None if every a_n is real, slots or None if the
    # support is every node), each over the member's support in slot order
    members: list
    # complex entries per point that `_lift_values` needs beside the node rows and F: the
    # widest layer's two gathers, or the largest gathered member's rows with, when a member
    # is complex, its imaginary-part sum; the two are never alive together
    scratch: int

    @property
    def columns(self) -> np.ndarray:
        """The 0-based table positions of the primes used, in slot order: `_draw` order."""
        return self.draw.columns


def _lift_plan(f: DirichletPolynomial, table: PrimeTable, *parts: DirichletPolynomial) -> _LiftPlan:
    """The nodes of the Bohr lift of f: its support closed under n -> spf(n) and n -> n/spf(n)."""
    if not all(g.coefficients.keys() <= f.coefficients.keys() for g in parts):
        raise ValueError("a part's support must lie inside the polynomial's support")
    if f.length > table.limit:
        raise SieveLimitError(f"support reaches {f.length}, beyond sieve limit {table.limit}")

    coefficients = f.coefficients
    spf = table.smallest_factor

    def closure() -> np.ndarray:
        # the support closed under n -> spf(n) and n -> n/spf(n), ascending: the nodes outside the
        # support (node 1, its own spf and cofactor, among them unless it is in the support) grow
        # in a set, a frontier at a time, so the support takes no second copy
        helpers = set() if 1 in coefficients else {1}
        frontier = np.fromiter(coefficients, dtype=np.int64, count=len(coefficients))
        while frontier.size:
            least, fresh = spf[frontier], set()
            for values in (least, frontier // least):
                fresh.update(n for n in values.tolist() if n not in coefficients and n not in helpers)
            helpers |= fresh
            frontier = np.fromiter(fresh, dtype=np.int64, count=len(fresh))
        return np.array(sorted(chain(coefficients, helpers)), dtype=np.int64)

    def sum_order(nodes: np.ndarray) -> tuple[_Draw, np.ndarray, list]:
        # the draw, the slot order (slot r holds nodes[order[r]]) and where each layer from Omega 2
        # on starts: node 1, the primes, then a bucket per Omega layer, each ascending in n. The
        # primes go in `_draw` order: by position j, the even j then the odd, each ascending. That
        # is an order of the support alone, so a member's sum runs over its support in slot order
        down = np.searchsorted(nodes, nodes // spf[nodes])  # each node's cofactor, a smaller node but for 1
        # Omega(n) = Omega(n/spf n) + 1: after k passes every node of Omega up to k holds its own
        omega = np.zeros(nodes.size, dtype=np.int64)
        while not np.array_equal(grown := omega[down] + (nodes > 1), omega):
            omega = grown
        buckets = [np.flatnonzero(omega == k) for k in range(max(int(omega.max()), 1) + 1)]
        positions = np.searchsorted(table.primes, nodes[buckets[1]])
        draw = _draw(positions)
        buckets[1] = buckets[1][np.searchsorted(positions, draw.columns)]
        return draw, np.concatenate(buckets), np.cumsum([bucket.size for bucket in buckets]).tolist()[1:]

    # charged before the closure is built, on a bound of it: at most f.length nodes, and an index
    # n > 1 brings at most 2 Omega(n) - 1 nodes beside node 1 (n, then each cofactor n/spf(n), ...
    # down to a prime, and the least prime of each). Building the plan traces at most 106 bytes a
    # node plus 8 KB on Z_N (N = 1 to 500000), where the bound is the node count; on random
    # sparse supports the bound overstates the nodes about 2 times. On a sparse support the sum
    # counts Omega first, dividing out least primes in arrays of at most 17 bytes a term, less
    # than the polynomial's own; the run that samples on the plan charges its retained arrays
    # with its own working set
    bound = f.length
    if len(f) < f.length:
        rest = np.fromiter(coefficients, dtype=np.int64, count=len(coefficients))
        count = 1 - int(np.count_nonzero(rest > 1))
        while (rest := rest[rest > 1]).size:
            count += 2 * rest.size
            rest //= spf[rest]
        bound = min(bound, count)
    errors.check_memory((1 << 13) + 106 * bound, f"the lift plan of up to {bound} nodes")
    nodes = closure()
    draw, order, bounds = sum_order(nodes)
    slot = np.empty(nodes.size, dtype=np.int64)  # nodes[i] sits in slot[i]
    slot[order] = np.arange(nodes.size)
    members = []
    term = np.empty(nodes.size, dtype=np.int64)  # the member's term at each slot, or -1
    for g in (f, *parts):
        # the terms in the member's own order, then in slot order through the inverse map
        terms = g.coefficients
        term.fill(-1)
        term[slot[np.searchsorted(nodes, np.fromiter(terms, np.int64, len(terms)))]] = np.arange(len(terms))
        slots = np.flatnonzero(term >= 0)
        coeffs = np.fromiter(terms.values(), np.complex128, len(terms))[term[slots]]
        members.append((coeffs.real.copy(), coeffs.imag.copy() if coeffs.imag.any() else None,
                        None if slots.size == nodes.size else slots))
    n = nodes[order]
    left, right = slot[np.searchsorted(nodes, spf[n])], slot[np.searchsorted(nodes, n // spf[n])]
    layers = [(lo, hi, np.concatenate((left[lo:hi], right[lo:hi]))) for lo, hi in zip(bounds, bounds[1:])]
    gathered = max((slots.size for _, _, slots in members if slots is not None), default=0)
    complex_sum = any(im is not None for _, im, _ in members)
    return _LiftPlan(
        draw=draw,
        size=nodes.size,
        layers=layers,
        members=members,
        scratch=max(max((pairs.size for _, _, pairs in layers), default=0), gathered + complex_sum),
    )


class _Lift:
    """`_lift_values` on one array of node rows Z, whose columns are points, one lift a call.

    Building it makes every view a call takes and sets node 1's row; a call fills the node
    rows past the primes' and returns F. F goes into `out` if given; `scratch`, a flat
    complex128 array of at least plan.scratch entries per point, holds the gathers if given.
    """

    def __init__(self, plan: _LiftPlan, Z: np.ndarray, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None):
        width = Z.shape[1]
        self.Z = Z
        self.F = np.empty((len(plan.members), width), dtype=np.complex128) if out is None else out
        if scratch is None:
            scratch = np.empty(plan.scratch * width, dtype=np.complex128)
        Z[0] = 1
        # per Omega layer: spf then cofactor slots, their gather, its two halves and the layer's rows
        self.layers = []
        for lo, hi, pairs in plan.layers:
            factors = scratch[: pairs.size * width].reshape(-1, width)
            self.layers.append((pairs, factors, factors[: hi - lo], factors[hi - lo :], Z[lo:hi]))
        # per member: Re a_n, the float view of its rows, of its F row, its slots or None, their
        # gather or None, and if complex (Im a_n, its sum's float view, then the real and imaginary
        # parts of F and of that sum)
        self.members = []
        for row, (re, im, slots) in zip(self.F, plan.members):
            m = 0 if slots is None else slots.size * width
            gathered = None if slots is None else scratch[:m].reshape(-1, width)
            v = row.view(np.float64)
            imaginary = None
            if im is not None:
                b = scratch[m : m + width].view(np.float64)
                imaginary = (im, b, v[0::2], v[1::2], b[0::2], b[1::2])
            self.members.append((re, (Z if slots is None else gathered).view(np.float64), v, slots, gathered,
                                 imaginary))

    def __call__(self) -> np.ndarray:
        Z = self.Z
        for pairs, factors, spf, cofactor, rows in self.layers:
            Z.take(pairs, axis=0, out=factors, mode="clip")
            # the product stays out of place: an in-place variant changed a last bit
            np.multiply(spf, cofactor, out=rows)
        for re, rows, v, slots, gathered, imaginary in self.members:
            if slots is not None:
                Z.take(slots, axis=0, out=gathered, mode="clip")
            np.einsum("i,ij->j", re, rows, out=v)
            if imaginary is not None:
                im, b, v_re, v_im, b_re, b_im = imaginary
                np.einsum("i,ij->j", im, rows, out=b)
                v_re -= b_im
                v_im += b_re
        return self.F


def _lift_values(plan: _LiftPlan, Z: np.ndarray) -> np.ndarray:
    """F = sum a_n z(n) of each member (row) at each point (column) of Z, whose rows are nodes.

    The caller writes z at the plan's primes into rows 1..P; z(n) = z(spf n) z(n/spf n)
    fills the other rows layer by layer. A member's F is the sequential sum over its
    support in slot order, acc = acc + Re(a_n) z(n), on the float view of the node rows
    (gathered first when the member skips nodes); a complex member sums Im(a_n) z(n) the
    same way and adds i times it. numpy's einsum on "i,ij->j" is that unfused loop in row
    order (the tests hold it to a Python loop bit for bit), and zero coefficients add
    nothing. No operation mixes columns, so a point's F does not depend on the points
    evaluated with it. The Monte Carlo engine builds one `_Lift` per worker and calls it per
    block.
    """
    return _Lift(plan, Z)()


def _lift_at(plan: _LiftPlan, z: np.ndarray | Sequence[complex]) -> complex:
    """F at the single point whose values on the plan's primes are z."""
    Z = np.empty((plan.size, 1), dtype=np.complex128)
    Z[1 : 1 + plan.columns.size, 0] = z
    return complex(_lift_values(plan, Z)[0, 0])


def _point_size(plan: _LiftPlan) -> tuple[int, int]:
    """A block point's entries in a worker's workspace, and its bytes with the hash's pair keys.

    The workspace holds, in 16-byte entries per point of a block: the node rows, F, and one
    area the stages take in turn: the phases' factor (1 entry a prime), the hashes (8 bytes a
    pair) and the digit (8 bytes a prime), with the hashes' shifted copies and then the odd
    columns' hash rows in the factor's room, and the lift's gathers (plan.scratch). Beside it
    `_Hash` keeps the pair keys, 8 bytes a pair and point.
    """
    primes, pairs = plan.columns.size, plan.draw.pairs.size
    per_point = plan.size + len(plan.members) + max(-(-(3 * primes + pairs) // 2), plan.scratch)
    return per_point, 16 * per_point + 8 * pairs


def _abs_rows(plan: _LiftPlan, samples: int, seed: int, workers: int) -> np.ndarray:
    """|F| of each of the plan's members (row) at samples 0..samples-1 (column), a float64 array.

    The run mixes its sample keys once and cuts the samples into equal blocks, which the
    workers take in turn, each on one hash, phase views and lift built in one flat workspace.
    The widest block is halved until the run fits the memory cap (a run that fits at no width
    is a ResourceLimitError); the last runs past the samples by fewer points than there are
    blocks, and only its first columns are kept. |F| of sample i depends only on (seed, i).
    """
    rows, primes = len(plan.members), plan.columns.size
    pairs, top = plan.draw.pairs, plan.draw.top
    odd = plan.draw.rows[top:]  # the odd columns' hash rows
    per_point, point_bytes = _point_size(plan)

    def need(block: int) -> int:
        # the plan's arrays (at most 24 bytes a node for the slots and columns and 24 per member
        # for its coefficients and slots), 32 KB for the run's Python objects and numpy's call
        # temporaries, and |F| of every member over the run; beside them either the sample keys
        # and the workspaces of the workers in flight or, once those are freed, one member's |F|^p
        # and deviations with the copy the fold takes
        blocks = -(-samples // block)
        sampling = 8 * blocks * block + min(workers, blocks) * block * point_bytes
        return (24 + 24 * rows) * plan.size + (1 << 15) + 8 * rows * samples + max(sampling, 24 * samples)

    widest = min(max(1, _BLOCK_BYTES // point_bytes), samples)
    cap = memory_cap_bytes()
    while widest > 1 and need(widest) > cap:
        widest //= 2
    # as few blocks as the widest allows, of one width
    blocks = -(-samples // widest)
    block = -(-samples // blocks)
    check_memory(need(block), "Monte Carlo sampling")
    busy = min(workers, blocks)
    absF = np.empty((rows, samples), dtype=np.float64)
    # the workspaces before the keys: allocated after them, one at times grew the heap and peak RSS by 1.4 MB
    workspaces = [np.empty(block * per_point, dtype=np.complex128) for _ in range(busy)]
    keys = _sample_keys(seed, 0, blocks * block)

    def fill(worker: int, workspace: np.ndarray) -> None:
        # every array the stages take, each C-ordered: the node rows, F, and in the stage area the
        # factor, the hashes and the digit. The even columns read their rows' top halves in place;
        # the odd columns' rows are gathered into the factor's room, free from the end of the hash
        # to the phases' second digit take
        Z = workspace[: plan.size * block].reshape(plan.size, block)
        F = workspace[plan.size * block : (plan.size + rows) * block].reshape(rows, block)
        stage = workspace[(plan.size + rows) * block :]
        units = stage.view(np.uint64)
        h = units[2 * primes * block : (2 * primes + pairs.size) * block].reshape(pairs.size, block)
        digit = units[(2 * primes + pairs.size) * block : (3 * primes + pairs.size) * block].reshape(primes, block)
        low = units[: (primes - top) * block].reshape(primes - top, block)
        hashing, lift = _Hash(pairs, block, h, units), _Lift(plan, Z, F, stage)
        phasing = (h[:top], low, Z[1 : 1 + primes], digit, stage[: primes * block].reshape(primes, block))
        for start in range(worker * block, samples, busy * block):
            hashing(keys[start : start + block])
            h.take(odd, axis=0, out=low, mode="clip")
            _phases(*phasing)
            np.abs(lift()[:, : samples - start], out=absF[:, start : start + block])

    if busy > 1:
        # imported here: a one-worker run never loads concurrent.futures (0.6 MB of RSS)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=busy) as pool:
            list(pool.map(fill, range(busy), workspaces))
    else:
        fill(0, *workspaces)
    return absF


def _power_means(row: np.ndarray, ps: Sequence[float], seed: int) -> list[NormEstimate]:
    """The Monte Carlo estimate at each p of `ps` from the samples of |F| in `row`, drawn with `seed`.

    The one place Monte Carlo estimates are formed: the p-th power mean of the row and its
    standard error, both reduced by `pairwise_sum`'s halving fold, whose shape depends only
    on the number of samples. A power mean or standard error past the float range is an
    OverflowError.
    """
    samples = row.size
    out = []
    for p in ps:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below instead
            x = row**p
            mean = pairwise_sum(x) / samples
            var = pairwise_sum((x - mean) ** 2) / (samples - 1)
        se = math.sqrt(var / samples)
        if not (math.isfinite(mean) and math.isfinite(se)):
            raise OverflowError(f"the p = {p} power mean of |F| or its error passes the float range")
        out.append(NormEstimate(p=p, value=mean ** (1.0 / p), power_mean=mean, method="monte_carlo",
                                samples=samples, std_error=se, seed=seed))
    return out


def _exponents(ps: Sequence[float]) -> list[float]:
    """The exponents as floats, each of which must be positive and finite (a ValueError if not)."""
    ps = [float(p) for p in ps]
    for p in ps:
        if not 0 < p < math.inf:
            raise ValueError(f"p must be positive and finite, got {p}")
    return ps


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
    count. The run mixes its sample keys once and runs in equal blocks, the last padded,
    of one width, halved until the run fits the memory cap; a run that fits at no width is
    a ResourceLimitError, and a power mean or error past the float range an OverflowError.
    With no p, the arguments are checked and nothing is planned or sampled.
    """
    ps = _exponents(ps)
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if workers < 1:
        raise ValueError(f"need at least 1 worker, got {workers}")
    if not ps:
        return []
    plan = _lift_plan(f, table, *parts)
    return [est for row in _abs_rows(plan, samples, seed, workers) for est in _power_means(row, ps, seed)]


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
    """The sample that `mc_norm` uses at position `index` for the given seed, on the primes p_1..p_J."""
    for name, value in (("index", index), ("prime_count", prime_count)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    k = _angles(seed, index, 1, np.arange(prime_count))[0]
    return SteinhausSample(values=_phases(k[:0], k << _B_LOW))


def evaluate_at_sample(
    f: DirichletPolynomial, sample: SteinhausSample, table: PrimeTable
) -> complex:
    """sum a_n z(n) with z(n) the multiplicative extension of the sampled z(p_j)."""
    plan = _lift_plan(f, table)
    z = sample.values
    if plan.columns.size and plan.columns.max() >= z.size:
        raise ValueError(f"sample covers {z.size} primes but the support needs {plan.columns.max() + 1}")
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
        """f(z) by Horner's rule: acc = a_d + 0 z, then acc = acc z + a_j for j = d-1, ..., 0.

        The loop is numpy's `polyval`, with its bits, run in place: an array z takes one
        accumulator and no temporaries, and a scalar z gives a numpy scalar.
        """
        a = self.coefficients
        acc = np.multiply(z, 0, dtype=np.complex128)
        acc += a[-1]
        for c in a[-2::-1]:
            acc *= z
            acc += c
        return acc


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
    Every p and the node count are checked before f is evaluated, and with no p it is not
    evaluated; a power mean past the float range is an OverflowError.
    """
    ps = _exponents(ps)
    if nodes < 4 * (f.degree + 1):
        raise ValueError(f"need at least {4 * (f.degree + 1)} nodes for degree {f.degree}")
    if not ps:
        return []
    # the nodes, the one accumulator of `DiscPolynomial`'s in-place Horner loop and |f|: traced
    # at 40 bytes per node for degrees 0 to 8 when the nodes are built
    check_memory(96 * nodes, f"quadrature on {nodes} circle nodes")
    absf = np.abs(f(_circle(nodes)))
    out = []
    for p in ps:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below instead
            mean = float(np.mean(absf**p))
        if not math.isfinite(mean):
            raise OverflowError(f"the p = {p} power mean of |f| on the circle passes the float range")
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
