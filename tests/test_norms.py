import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from oracle import big_omega, factor, prime_position

from dirichlet_hardy import errors, norms
from dirichlet_hardy.arith import binomial_series_coefficient, divisor_weight_prime_power
from dirichlet_hardy.bounds import _slack, hl_lower_sum, hl_upper_sum
from dirichlet_hardy.dseries import (
    DirichletPolynomial,
    homogeneous_projection,
    partial_sum,
    smooth_truncation,
    zeta_partial,
    zeta_power_partial,
)
from dirichlet_hardy.errors import MEMORY_CAP_ENV, ResourceLimitError
from dirichlet_hardy.experiments import random_dirichlet, random_disc
from dirichlet_hardy.norms import (
    DiscPolynomial,
    SteinhausSample,
    dilate,
    disc_norm,
    disc_norm_many,
    evaluate_at_sample,
    even_norm_exact,
    l2_norm,
    mc_norm,
    mc_norm_many,
    pairwise_sum,
    steinhaus_sample,
    steinhaus_uniforms,
)


def random_sparse(rng, max_support=50, max_index=1000):
    size = int(rng.integers(1, max_support + 1))
    idx = rng.choice(np.arange(1, max_index + 1), size=size, replace=False)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return DirichletPolynomial({int(n): complex(v) for n, v in zip(idx, vals)})


class TestExactNorms:
    def test_l2_examples(self):
        assert l2_norm(DirichletPolynomial({1: 1, 2: 2})).value == pytest.approx(math.sqrt(5))
        assert l2_norm(zeta_partial(2)).value == pytest.approx(math.sqrt(1.5))
        assert l2_norm(DirichletPolynomial({})).value == 0.0

    def test_even_examples(self):
        est = even_norm_exact(DirichletPolynomial({1: 1, 2: 1}), 2)
        assert est.value == pytest.approx(6**0.25, rel=1e-14)
        f = DirichletPolynomial({1: 0.5, 3: 1j, 10: -2})
        assert even_norm_exact(f, 1).value == pytest.approx(l2_norm(f).value, rel=1e-14)
        assert even_norm_exact(zeta_partial(2), 2).value == pytest.approx(3.25**0.25, rel=1e-14)

    def test_even_rejects_bad_k(self):
        with pytest.raises(ValueError):
            even_norm_exact(zeta_partial(2), 0)


class TestCounterRng:
    def test_partition_invariance(self):
        whole = steinhaus_uniforms(11, 0, 100, 5)
        assert np.array_equal(whole[17:40], steinhaus_uniforms(11, 17, 23, 5))
        assert np.array_equal(whole[:, :3], steinhaus_uniforms(11, 0, 100, 3))

    @pytest.mark.parametrize("first_sample", [0, 2**63, 2**70])
    def test_stream_splits_at_any_sample(self, first_sample):
        # a range's angles are its two halves' concatenated, past 2^64 samples too, where the
        # sample keys wrap mod 2^64
        whole = steinhaus_uniforms(3, first_sample, 200, 7)
        assert np.array_equal(whole, np.concatenate((steinhaus_uniforms(3, first_sample, 77, 7),
                                                     steinhaus_uniforms(3, first_sample + 77, 123, 7))))

    def test_range_and_spread(self):
        u = steinhaus_uniforms(0, 0, 4000, 8)
        assert (u >= 0).all() and (u < 1).all()
        assert abs(u.mean() - 0.5) < 0.01

    def test_seed_sensitivity(self):
        assert not np.array_equal(
            steinhaus_uniforms(1, 0, 10, 4), steinhaus_uniforms(2, 0, 10, 4)
        )

    def test_pinned_values(self):
        # the stream is part of every Monte Carlo output; these bits must not drift. halves are
        # the 32-bit halves of pairs 0 and 1's hashes, top then low, in turns; each column's angle
        # is its half truncated to 22 bits. The even columns take the top halves: each is the
        # 53-bit angle k 2^-53 of the same hash (its top 53 bits) truncated to 22 bits
        u = steinhaus_uniforms(2**61 + 5, 10**6, 1, 4)[0]
        halves = ["0x1.4d5309b400000p-1", "0x1.25ff1d5800000p-2",
                  "0x1.5f8fc6e000000p-2", "0x1.507313e800000p-1"]
        h = norms._uniforms(2**61 + 5, 10**6, 1, np.arange(4))[:, 0].tolist()
        assert [x * 2.0**-32 for q in h for x in (q >> 32, q & 0xFFFFFFFF)] == list(map(float.fromhex, halves))
        wide = ["0x1.4d5309b492ff8p-1", "0x1.5f8fc6e2a0e62p-2"]
        for pinned, angles in ((halves, u), (wide, u[0::2])):
            assert angles.tolist() == [math.floor(float.fromhex(x) * 2**22) * 2.0**-22 for x in pinned]

    @pytest.mark.parametrize("seed, i, j", [(0, 0, 0), (1, 5, 3), (-3, 7, 11), (2**61 + 5, 10**6, 302),
                                            (2**64 - 1, 2**40, 0), (2**64 - 1, 2**40, 1), (9, 0, 301)])
    def test_stream_matches_splitmix64_reference(self, seed, i, j):
        # splitmix64 on Python ints: the hash of (seed, sample i, pair q) is
        # mix(mix(mix(seed) + (i+1) gamma_sample) + (q+1) gamma_prime), mod 2^64, and the angle of
        # prime p_{j+1} is the top 22 bits of a half of pair j // 2's hash: of the top 32 bits for
        # even j, of the low 32 for odd j
        mask = 2**64 - 1

        def mix(x):
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
            x = (x ^ (x >> 27)) * 0x94D049BB133111EB & mask
            return x ^ (x >> 31)

        per_sample = mix(mix(seed & mask) + (i + 1) * 0x9E3779B97F4A7C15 & mask)
        h = mix((j // 2 + 1) * 0xD1B54A32D192ED03 + per_sample & mask)
        half, other = (h >> 32, h & 0xFFFFFFFF) if j % 2 == 0 else (h & 0xFFFFFFFF, h >> 32)
        angle = half >> 10
        hashes = norms._uniforms(seed, i, 1, np.array([j]))
        assert hashes.dtype == np.uint64 and hashes.shape == (1, 1) and int(hashes[0, 0]) == h
        k = norms._angles(seed, i, 1, [j])
        assert k.shape == (1, 1) and int(k[0, 0]) == angle
        assert steinhaus_uniforms(seed, i, 1, j + 1)[0, j] == angle * 2.0**-22
        # the pair's other prime takes the other half of the same hash
        assert int(norms._angles(seed, i, 1, [j ^ 1])[0, 0]) == other >> 10

    @pytest.mark.parametrize("columns", [[], [0], [302], [0, 5, 6, 301, 302], list(range(0, 303, 7)),
                                         [1], [2, 5], [0, 1, 302]])
    def test_column_draw_is_the_full_streams_columns(self, columns):
        # the engine draws only the columns it uses, one hash per pair they touch; its hashes and
        # angles are the full stream's, bit for bit, and the published stream is the same
        # integer angles in turns
        cols = np.array(columns, dtype=np.int64)
        full = norms._angles(11, 40, 300, np.arange(303))
        assert np.array_equal(norms._angles(11, 40, 300, cols), full[:, cols])
        assert np.array_equal(steinhaus_uniforms(11, 40, 300, 303), full * 2.0**-22)
        row = {q: r for r, q in enumerate(norms._draw(np.arange(303)).pairs.tolist())}
        pairs = norms._draw(cols).pairs.tolist()
        assert sorted(pairs) == sorted({j // 2 for j in columns})
        hashes = norms._uniforms(11, 40, 300, np.arange(303))
        assert np.array_equal(norms._uniforms(11, 40, 300, cols), hashes[[row[q] for q in pairs]])

    @pytest.mark.parametrize("columns, drawn, pairs, top", [
        ([], [], [], 0),
        ([1], [1], [0], 0),
        ([2, 5], [2, 5], [2, 1], 1),
        ([302, 1, 0], [0, 302, 1], [0, 151], 2),
        ([7, 0, 3, 2, 4, 9, 6], [2, 6, 0, 4, 9, 3, 7], [4, 1, 3, 0, 2], 4),
        (range(9), [0, 2, 4, 6, 8, 1, 3, 5, 7], [0, 1, 2, 3, 4], 5),
    ])
    def test_draw_order(self, columns, drawn, pairs, top):
        # full pairs' even positions, lone even ones, lone odd ones, then full pairs' odd ones:
        # the even positions take the top halves of the last `top` hash rows and the odd ones
        # the low halves of the first rows. A dense set draws every even position, then every odd
        draw = norms._draw(np.array(columns, dtype=np.int64))
        assert (draw.columns.tolist(), draw.pairs.tolist(), draw.top) == (drawn, pairs, top)

    @pytest.mark.parametrize("call, name", [
        (lambda: steinhaus_uniforms(1, -5, 2, 2), "first_sample"),
        (lambda: steinhaus_uniforms(1, 0, -1, 2), "count"),
        (lambda: steinhaus_uniforms(1, 0, 2, -1), "prime_count"),
        (lambda: steinhaus_sample(1, -1, 3), "index"),
        (lambda: steinhaus_sample(1, 0, -1), "prime_count"),
    ])
    def test_rejects_negative_positions(self, call, name):
        # sample -1 would alias the sample key (i + 1) gamma = 0, which the engine never draws
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative"):
            call()

    def test_phases_read_either_half_of_the_hash(self):
        # a phase read at bit offset 42 or 10 of a hash is the phase of that half's 22-bit angle,
        # bit for bit, at every digit edge of either half too, whatever the 10 bits below each
        # angle, alone or stacked with other halves
        edges = np.array([j * 2**11 + d for j in range(2048) for d in (-1, 0, 1)
                          if 0 <= j * 2**11 + d < 2**22] + [0, 1, 2**22 - 1], dtype=np.uint64)
        h = np.concatenate((norms._uniforms(4, 0, 1000, np.arange(6)).ravel(),
                            *((edges << np.uint64(42)) | (edges[::-1] << np.uint64(10)) | np.uint64(below)
                              for below in (0, 0x3FF000003FF))))
        for top, low in ((h, h[:0]), (h[:0], h), (h, h), (h[:7], h), (h, h[5:9])):
            angles = np.concatenate((top >> np.uint64(42), (low & np.uint64(0xFFFFFFFF)) >> np.uint64(10)))
            alone = norms._phases(angles[:0], angles << np.uint64(10))
            assert np.array_equal(norms._phases(top, low).view(np.uint64), alone.view(np.uint64))

    def test_pairwise_sum_matches_fsum(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(12345)
        assert pairwise_sum(x) == pytest.approx(math.fsum(x.tolist()), rel=1e-13)
        assert pairwise_sum(np.array([])) == 0.0

    def test_table_phases_match_mpmath(self):
        # the table route is as accurate as libm's exp(2 pi i k 2^-22), at every digit edge too
        mpmath = pytest.importorskip("mpmath")
        ulp = 2.0**-53
        edges = [j * 2**11 + d for j in range(2048) for d in (-1, 0, 1)]
        k = np.array([0, 1, 2**22 - 1] + [x for x in edges if 0 <= x < 2**22]
                     + norms._angles(4, 0, 1000, np.arange(3)).ravel().tolist(), dtype=np.uint64)
        routes = (norms._phases(k[:0], k << np.uint64(10)), np.exp(2j * np.pi * (k * 2.0**-22)))
        with mpmath.workprec(120):
            for x, *zs in zip(k.tolist(), *(z.tolist() for z in routes)):
                exact = mpmath.expjpi(mpmath.ldexp(x, -21))  # exp(pi i x 2^-21), exact argument
                for zx in zs:
                    w = mpmath.mpc(zx.real, zx.imag)
                    assert abs(w - exact) <= 16 * ulp
                    assert abs(abs(w) - 1) <= 8 * ulp

    def test_grid_bias_of_the_phases(self):
        # E|1 + z|^p over the circle is Gamma(p+1) / Gamma(p/2+1)^2. Over all 2^22 table phases
        # the mean is exact at even p, whose |1 + z|^p has no frequency as high as 2^22, and
        # within 1e-9 elsewhere: the worst gap, about 1.1e-10, is at p = 0.5, where the
        # integrand's kink (the zero of 1 + z) lies on the grid
        ps = [0.5, 1.0, 4 / 3, 2.0, 3.0, 4.0, 5.0]
        sums = {p: [] for p in ps}
        for a in range(0, 2048, 128):
            r = np.abs(1 + (norms._TURN_A[a : a + 128, None] * norms._TURN_B).ravel())
            for p in ps:
                sums[p].append(float(np.sum(r**p)))
        for p in ps:
            mean = math.fsum(sums[p]) / 2**22
            circle = math.gamma(p + 1) / math.gamma(p / 2 + 1) ** 2
            if p in (2.0, 4.0):
                assert mean == circle
            else:
                assert mean == pytest.approx(circle, rel=1e-9, abs=0)


class TestMonteCarlo:
    def test_matches_l2(self, table_2k):
        f = DirichletPolynomial({1: 1, 2: 2})
        est = mc_norm(f, 2.0, 100_000, 42, table_2k)
        assert abs(est.power_mean - 5.0) <= 3 * est.std_error

    def test_matches_quadrature_p1(self, table_2k):
        est = mc_norm(DirichletPolynomial({1: 1, 2: 1}), 1.0, 200_000, 7, table_2k)
        assert abs(est.value - 4 / math.pi) <= 3 * est.std_error

    def test_constant(self, table_2k):
        est = mc_norm(DirichletPolynomial({1: 3 + 4j}), 0.7, 100, 5, table_2k)
        assert est.value == pytest.approx(5.0, rel=1e-12)
        assert est.std_error == 0.0

    def test_zero_polynomial(self, table_2k):
        est = mc_norm(DirichletPolynomial({}), 1.0, 100, 5, table_2k)
        assert est.value == 0.0

    def test_rejects_bad_args(self, table_2k):
        f = zeta_partial(2)
        with pytest.raises(ValueError):
            mc_norm(f, 0.0, 100, 1, table_2k)
        with pytest.raises(ValueError):
            mc_norm(f, 2.0, 1, 1, table_2k)
        for p in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                mc_norm_many(f, [1.0, p], 100, 1, table_2k)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers, table_2k):
        # checked before anything runs: with no worker no block would fill |F|
        with pytest.raises(ValueError, match="at least 1 worker"):
            mc_norm_many(zeta_partial(10), [1.0], 100, 1, table_2k, workers)

    def test_std_error_centred(self, table_2k):
        # |F| = |1e8 + z|: |F|^p is nearly constant, so sumsq - n*mean^2 cancels to nothing
        samples = 20_000
        u = steinhaus_uniforms(3, 0, samples, 1)[:, 0]
        absF = np.abs(1e8 + np.exp(2j * np.pi * u))
        f = DirichletPolynomial({1: 1e8, 2: 1})
        for p in (1.0, 2.0):
            est = mc_norm(f, p, samples, 3, table_2k)
            reference = np.std(absF**p, ddof=1) / math.sqrt(samples)
            assert est.std_error == pytest.approx(reference, rel=1e-6)

    def test_deterministic_across_workers(self, table_2k):
        f = random_sparse(np.random.default_rng(3))
        runs = [mc_norm(f, 1.5, 50_000, 99, table_2k, workers=w) for w in (1, 1, 8)]
        assert runs[0].value == runs[1].value == runs[2].value
        assert runs[0].std_error == runs[2].std_error

    def test_block_size_leaves_outputs_unchanged(self, table_2k, monkeypatch):
        # |F| of sample i depends only on (seed, i), not on the block that evaluates it or on the
        # worker count. A last-bit change in a few samples can vanish from the means, so the arrays
        # handed to the reduction (|F|^p and the squared deviations) are compared too.
        f = zeta_partial(350)
        nodes = norms._lift_plan(f, table_2k).size
        reduced = []

        def recording_sum(values):
            reduced[-1].append(np.array(values))
            return pairwise_sum(values)

        def run(samples, block_bytes=norms._BLOCK_BYTES, workers=1, g=f, parts=()):
            monkeypatch.setattr(norms, "_BLOCK_BYTES", block_bytes)
            reduced.append([])
            ests = mc_norm_many(g, [1.0, 3.0], samples, 5, table_2k, workers, parts)
            return [(e.value.hex(), e.std_error.hex()) for e in ests], reduced[-1]

        monkeypatch.setattr(norms, "pairwise_sum", recording_sum)
        default, arrays = run(16384)
        # blocks of 64 KB (1490 of 11 points, the last padded by 6) and the default (88 of 187,
        # the last padded by 72), with two workers taking every other block
        for block_bytes in (1 << 16, norms._BLOCK_BYTES):
            for workers in (1, 2):
                ests, other = run(16384, block_bytes, workers)
                assert ests == default
                assert all(np.array_equal(a, b) for a, b in zip(arrays, other, strict=True))
        # blocks of one point, and at widest blocks of 7 and 187 points prefixes that leave 1 point
        # and all but one over a whole number of them, so the last block is padded, at one to three
        # workers: |F| and |F|^3 (reduced first and third) are the default run's prefix, and the
        # rows of |F| hold exactly the samples
        plan = norms._lift_plan(f, table_2k)
        for block_bytes in (1, 7 * 16 * nodes, norms._BLOCK_BYTES):
            block = max(1, block_bytes // (16 * nodes))
            for samples in sorted({4097, 4096 // block * block + 1, 4096 // block * block + block - 1}):
                for workers in (1, 2, 3):
                    _, other = run(samples, block_bytes, workers)
                    assert np.array_equal(other[0], arrays[0][:samples])
                    assert np.array_equal(other[2], arrays[2][:samples])
                    rows = norms._abs_rows(plan, samples, 5, workers)
                    assert rows.shape == (1, samples) and np.array_equal(rows[0], arrays[0][:samples])
        # parts evaluated on f's nodes give the bits of their own runs, f's estimates first;
        # the second f is complex, and its first part has real coefficients
        g = DirichletPolynomial({n: 1j if n % 7 == 0 else 1 for n in range(1, 351)})
        for h, parts in ((f, [partial_sum(f, 300), homogeneous_projection(f, 2, table_2k),
                              DirichletPolynomial({})]),
                         (g, [partial_sum(f, 300), partial_sum(g, 300)])):
            alone = [e for part in (h, *parts) for e in run(16384, g=part)[0]]
            for block_bytes, workers in ((1 << 20, 1), (1 << 20, 2), (1 << 16, 1), (1 << 16, 2)):
                assert run(16384, block_bytes, workers, g=h, parts=parts)[0] == alone

    @pytest.mark.parametrize("block_bytes", [1 << 16, 1 << 20])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_arrays_are_built_once_per_worker(self, block_bytes, workers, table_2k, monkeypatch):
        # the samples run in as few blocks as the widest width allows, all of one balanced width:
        # each worker builds the hash's and the lift's arrays once, at that width, and every block
        # runs the hash. Z_350 allows 11 or 187 points; 20 such blocks and 3 points more take 21
        # blocks of 11 or 179, the last padded
        monkeypatch.setattr(norms, "_BLOCK_BYTES", block_bytes)
        widest = block_bytes // (16 * 350)
        built, hashed = [], []
        hashing, lifting, draw = norms._Hash.__init__, norms._Lift.__init__, norms._Hash.__call__
        monkeypatch.setattr(norms._Hash, "__init__",
                            lambda self, *args, **kw: built.append(("hash", args[1])) or hashing(self, *args, **kw))
        monkeypatch.setattr(norms._Lift, "__init__", lambda self, *args, **kw:
                            built.append(("lift", args[1].shape[1])) or lifting(self, *args, **kw))
        monkeypatch.setattr(norms._Hash, "__call__",
                            lambda self, *args: hashed.append(self.hashes.shape[1]) or draw(self, *args))
        for samples, blocks in ((20 * widest, 20), (20 * widest + 3, 21)):
            block = -(-samples // blocks)
            built.clear()
            hashed.clear()
            mc_norm_many(zeta_partial(350), [1.0], samples, 5, table_2k, workers)
            assert sorted(built) == sorted([("hash", block), ("lift", block)] * workers)
            assert hashed == [block] * blocks

    def test_contraction_is_a_sequential_slot_order_sum(self, table_2k):
        # each member's F is the plain loop acc = acc + Re(a_n) z(n) over its support, on the
        # float view of the node rows, with the imaginary parts summed apart and
        # combined at the end: a kernel that fuses the multiply and add or reorders the sum gives
        # other bits. The sum runs by Omega(n), then n, but over the primes by 0-based position j,
        # the even j then the odd, each ascending, whatever the other primes of the plan. The rows
        # go the same way, but the primes' in draw order: the full pairs' even j, the even j whose
        # partner j + 1 is absent, the odd j whose partner j - 1 is absent, then the full pairs'
        # odd j, each ascending. The closed support's primes 2, 5 and 7 (j = 0, 2, 3) are drawn as
        # 5, 2, 7, so it is gathered though it is every node. Node rows sit in an unaligned buffer
        # at a column offset
        def rows_of(support):
            # the closure of the support and 1 under n -> p, n/p for the least prime p of n
            nodes, todo = {1}, list(support)
            while todo:
                n = todo.pop()
                if n not in nodes:
                    nodes.add(n)
                    q = factor(n)[0][0]
                    todo += [q, n // q]
            used = {prime_position(n) for n in nodes if big_omega(n) == 1}

            def slot_key(n):
                if big_omega(n) != 1:
                    return big_omega(n), 0, n
                j = prime_position(n)
                return 1, (3 if j ^ 1 in used else 2) if j % 2 else (0 if j ^ 1 in used else 1), j

            return {n: r for r, n in enumerate(sorted(nodes, key=slot_key))}

        def sum_key(n):
            return (1, prime_position(n) % 2, prime_position(n)) if big_omega(n) == 1 else (big_omega(n), 0, n)

        rng = np.random.default_rng(8)
        dense = zeta_partial(120)
        cplx = DirichletPolynomial({n: complex(*rng.standard_normal(2)) for n in range(1, 121)})
        sparse = random_dirichlet(rng, 64, 1000)
        closed = DirichletPolynomial({n: complex(*rng.standard_normal(2)) for n in (1, 2, 5, 7, 10, 14, 35, 70)})
        cases = [
            (dense, [homogeneous_projection(dense, 2, table_2k), partial_sum(dense, 100),
                     DirichletPolynomial({n: 2j - n for n in range(2, 121, 3)})]),
            (cplx, [partial_sum(cplx, 90), DirichletPolynomial({n: 0.5 for n in range(1, 121, 5)})]),
            (sparse, [partial_sum(sparse, 500), DirichletPolynomial({n: 1.5 for n in sparse.support[::2]})]),
            (closed, [partial_sum(closed, 14)]),
        ]
        for f, parts in cases:
            plan = norms._lift_plan(f, table_2k, *parts)
            rows = rows_of(f.support)
            assert plan.size == len(rows)
            assert (plan.members[0][2] is None) == (f is not closed and len(f) == plan.size)
            for _ in range(4):
                width, offset = int(rng.integers(1, 600)), int(rng.integers(0, 8))
                cells = plan.size * (width + offset)
                buffer = np.empty(16 * cells + 8, dtype=np.uint8)[8:].view(np.complex128)
                Z = buffer.reshape(plan.size, width + offset)[:, offset:]
                Z[1 : 1 + plan.columns.size] = np.exp(2j * np.pi * rng.random((plan.columns.size, width)))
                F = norms._lift_values(plan, Z)
                Zf = Z.view(np.float64)
                for g, got in zip((f, *parts), F, strict=True):
                    re = im = np.zeros(2 * width)
                    for n in sorted(g.support, key=sum_key):
                        re = re + g.coeff(n).real * Zf[rows[n]]
                        im = im + g.coeff(n).imag * Zf[rows[n]]
                    expected = np.empty(width, dtype=np.complex128)
                    expected.real, expected.imag = re[0::2] - im[1::2], re[1::2] + im[0::2]
                    assert np.array_equal(got, expected)

    @pytest.mark.parametrize("primes, limit, M", [((2, 3), 200, 128), ((2, 3, 5), 100, 64)])
    def test_tensor_grid_oracle(self, primes, limit, M, table_2k):
        # F of a {2,3}- or {2,3,5}-smooth f on the M^P grid of roots of unity: |F|^4 has no
        # frequency beyond 2 * 7 < M in any variable, so its grid mean is exact; at p = 1 and 3
        # the grid mean is the torus mean to about 1e-5, and the Monte Carlo mean lies within
        # 4 SE of it
        P = len(primes)
        rng = np.random.default_rng(P)
        support = [n for n in range(1, limit + 1) if all(q in primes for q, _ in factor(n))]
        f = DirichletPolynomial({n: complex(*rng.standard_normal(2)) for n in support})
        plan = norms._lift_plan(f, table_2k)
        assert sorted(plan.columns.tolist()) == list(range(P))
        circle = np.exp(2j * np.pi * np.arange(M) / M)
        rest = [axis.ravel() for axis in np.meshgrid(*[circle] * (P - 1), indexing="ij")]
        absF = []
        for z1 in circle:  # one block of M^(P-1) points per value of the first prime row's z
            Z = np.empty((plan.size, M ** (P - 1)), dtype=np.complex128)
            Z[1] = z1
            Z[2 : 1 + P] = rest
            absF.append(np.abs(norms._lift_values(plan, Z)[0]))
        absF = np.concatenate(absF)

        def grid_mean(p):
            return math.fsum((absF**p).tolist()) / absF.size

        assert grid_mean(4.0) == pytest.approx(even_norm_exact(f, 2).power_mean, rel=1e-12)
        for est in mc_norm_many(f, [1.0, 3.0], 65536, 7, table_2k):
            assert abs(est.power_mean - grid_mean(est.p)) <= 4 * est.std_error

    def test_parts_must_lie_in_the_support(self, table_2k):
        # 351 is no node of Z_350's lift and 2 is a node of {6: 1}'s, but neither is in the support
        for f, part in ((zeta_partial(350), {351: 1}), (DirichletPolynomial({6: 1}), {2: 1})):
            with pytest.raises(ValueError, match="support"):
                mc_norm_many(f, [1.0], 100, 5, table_2k, parts=[DirichletPolynomial(part)])

    @pytest.mark.parametrize("case", ["zeta-power", "golden-1", "golden-2", "high-primes"])
    def test_matches_trial_division_reference(self, table_2k, case):
        # |F| per sample from trial division, libm phases and fsum per point: no lift plan,
        # table phases or fold in common with the engine
        f = {
            "zeta-power": lambda: zeta_power_partial(600, 1.5, table_2k),
            "golden-1": lambda: random_dirichlet(np.random.default_rng(1), 64, 1000),
            "golden-2": lambda: random_dirichlet(np.random.default_rng(2), 64, 1000),
            "high-primes": lambda: DirichletPolynomial({1: 1, 1999: 0.5j, 1993: -2, 1994: 1}),
        }[case]()
        factors = {n: factor(n) for n in f.support}
        width = max((prime_position(p) + 1 for fac in factors.values() for p, _ in fac), default=0)
        z = np.exp(2j * np.pi * steinhaus_uniforms(17, 0, 64, width))
        absF = []
        for row in z.tolist():
            terms = [f.coeff(n) * math.prod(row[prime_position(p)] ** e for p, e in factors[n])
                     for n in f.support]
            absF.append(abs(complex(math.fsum(t.real for t in terms),
                                    math.fsum(t.imag for t in terms))))
        # per sample, so an error that cancels in the means shows too
        rows = norms._abs_rows(norms._lift_plan(f, table_2k), 64, 17, 1)
        assert rows[0].tolist() == pytest.approx(absF, rel=1e-12)
        for est in mc_norm_many(f, [1.0, 2.0], 64, 17, table_2k):
            reference = math.fsum(a**est.p for a in absF) / 64
            assert est.power_mean == pytest.approx(reference, rel=1e-12)

    def test_memory_cap(self, table_2k, monkeypatch):
        # Z_350 is charged about 1.9 MB at the default block of 187 points with one worker and
        # 3.7 MB with two; under a tighter cap the block halves until the run fits, with the same bits
        f = zeta_partial(350)
        uncapped = mc_norm(f, 1.0, 16384, 1, table_2k)
        block = norms._BLOCK_BYTES // (16 * norms._lift_plan(f, table_2k).size)
        counts = []
        draw = norms._Hash.__call__
        monkeypatch.setattr(norms._Hash, "__call__",
                            lambda self, *args: counts.append(self.hashes.shape[1]) or draw(self, *args))
        for cap, workers in ((1_500_000, 1), (3_000_000, 2)):
            monkeypatch.setenv("DIRICHLET_HARDY_MEMORY_CAP", str(cap))
            counts.clear()
            est = mc_norm(f, 1.0, 16384, 1, table_2k, workers=workers)
            assert max(counts) < block
            assert (est.value.hex(), est.std_error.hex()) == (uncapped.value.hex(), uncapped.std_error.hex())
        # even a one-point block is refused: |F| and the reductions over 2M samples need 64 MB
        monkeypatch.setenv("DIRICHLET_HARDY_MEMORY_CAP", str(15_000_000))
        with pytest.raises(ResourceLimitError):
            mc_norm(DirichletPolynomial({1: 1, 2: 1}), 1.0, 2_000_000, 1, table_2k)

    @pytest.mark.parametrize("N, alpha", [(350, 1.0), (600, 1.5)])
    def test_memory_charge_tracks_the_traced_peak(self, N, alpha, table_2k, monkeypatch):
        # the charge covers every byte the run allocates and overstates the peak by under 25%,
        # at the default block and at the block halved to fit a 1.5 MB cap
        charged, counts = [], []
        monkeypatch.setattr(norms, "check_memory", lambda need, what: charged.append(need))
        draw = norms._Hash.__call__
        monkeypatch.setattr(norms._Hash, "__call__",
                            lambda self, *args: counts.append(self.hashes.shape[1]) or draw(self, *args))
        f = zeta_partial(N) if alpha == 1.0 else zeta_power_partial(N, alpha, table_2k)
        block = norms._BLOCK_BYTES // (16 * norms._lift_plan(f, table_2k).size)
        # a process's first np.unique imports numpy.ma, about 1 MB that is not the run's
        mc_norm(f, 1.0, 64, 1, table_2k)
        for cap, width in ((None, block), (1_500_000, block // 2)):
            if cap is not None:
                monkeypatch.setenv("DIRICHLET_HARDY_MEMORY_CAP", str(cap))
            charged.clear()
            counts.clear()
            tracemalloc.start()
            try:
                mc_norm(f, 1.0, 16384, 1, table_2k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert max(counts) == width
            assert peak <= charged[0] <= 1.25 * peak, (cap, charged[0], peak)

    def test_peak_grows_only_by_the_per_sample_arrays(self, table_2k):
        # the workspace is one block per worker whatever the sample count, so from 1024 to 16384
        # to 65536 samples the traced peak may grow only by the per-sample arrays (|F|, |F|^p,
        # the deviations and the fold's copy: 32 bytes a sample) and 16 KB of allocator noise;
        # angles drawn for a chunk of samples at once would grow it by megabytes
        f = zeta_partial(350)
        mc_norm(f, 1.0, 64, 1, table_2k)
        peaks = []
        for samples in (1024, 16384, 65536):
            tracemalloc.start()
            try:
                mc_norm_many(f, [1.0], samples, 1, table_2k)
                peaks.append((samples, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
        for (small, low), (large, high) in zip(peaks, peaks[1:]):
            assert high - low <= 32 * (large - small) + (1 << 14), peaks

    def test_memory_charge_tracks_the_phase_temporaries(self, table_2k, monkeypatch):
        # a sum over the first 303 primes has as many prime columns as terms, so the phase
        # temporaries set the block's working set; under an 8 MB cap the charge stays within
        # 25% of the traced peak
        charged = []
        monkeypatch.setattr(norms, "check_memory", lambda need, what: charged.append(need))
        monkeypatch.setenv("DIRICHLET_HARDY_MEMORY_CAP", str(8_000_000))
        f = DirichletPolynomial({int(p): 1.0 for p in table_2k.primes[:303]})
        mc_norm(f, 1.0, 64, 1, table_2k)
        charged.clear()
        tracemalloc.start()
        try:
            mc_norm(f, 1.0, 16384, 1, table_2k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= charged[0] <= 1.25 * peak, (charged[0], peak)

    def test_lift_plan_is_charged_before_it_is_built(self, table_2k, monkeypatch):
        # building the plan of Z_2000 traces about 312 KB, charged within 25%; under a cap below
        # the charge the run is refused before the closure allocates anything
        f = zeta_partial(2000)
        charged = []
        check = errors.check_memory
        monkeypatch.setattr(errors, "check_memory", lambda need, what: charged.append(need) or check(need, what))
        norms._lift_plan(f, table_2k)  # a process's first calls import what is not the plan's
        charged.clear()
        tracemalloc.start()
        try:
            norms._lift_plan(f, table_2k)
            _, built = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built <= charged[0] <= 1.25 * built, (charged, built)
        cap = charged[0] - 1
        monkeypatch.setenv(MEMORY_CAP_ENV, str(cap))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="lift plan"):
                mc_norm(f, 1.0, 1000, 1, table_2k)
            _, refused = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert refused < cap // 10, (refused, cap)

    def test_sparse_lift_plan_is_charged_on_omega(self, table_1m, monkeypatch):
        # 2000 random indices up to 2e5 close to about 5900 nodes. The bound 1 + sum (2 Omega(n) - 1)
        # charges about 1.9 MB where the bit-length bound charged 9.4 MB; a cap between the two
        # lets the plan be built, and the charge still covers the traced build, factoring included
        rng = np.random.default_rng(1)
        f = DirichletPolynomial({int(n): 1.0 for n in rng.choice(np.arange(1, 200_001), 2000, replace=False)})
        charged = []
        check = errors.check_memory
        monkeypatch.setattr(errors, "check_memory",
                            lambda need, what: charged.append((need, what)) or check(need, what))
        norms._lift_plan(f, table_1m)
        bit_length_charge = (1 << 13) + 130 * min(f.length, 1 + 2 * len(f) * f.length.bit_length())
        assert 4 * charged[0][0] < bit_length_charge
        monkeypatch.setenv(MEMORY_CAP_ENV, str((charged[0][0] + bit_length_charge) // 2))
        charged.clear()
        tracemalloc.start()
        try:
            plan = norms._lift_plan(f, table_1m)
            _, built = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (need, what), = charged
        assert plan.size <= int(re.search(r"up to (\d+) nodes", what).group(1))
        assert built <= need, (need, built)

    def test_power_mean_past_the_float_range(self, table_2k):
        # |F| of Z_10 reaches about 4.3 in 100 samples: at p = 400 the standard error passes the
        # float range, at p = 800 the power mean too. Either is an OverflowError with no numpy
        # warning, and ordinary p keeps the bits it had before the check
        Z = zeta_power_partial(10, 1.0, table_2k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (400.0, 800.0):
                with pytest.raises(OverflowError, match="float range"):
                    mc_norm_many(Z, [2.0, p], 100, 1, table_2k)
            ests = mc_norm_many(Z, [2.0, 3.0, 100.0], 100, 1, table_2k)
        assert [(e.power_mean.hex(), e.std_error.hex()) for e in ests] == [
            ("0x1.40982854228bdp+1", "0x1.52b6de4e7ba52p-2"),
            ("0x1.844397881aa24p+2", "0x1.3350b0258d0f1p+0"),
            ("0x1.ea76ce43086c3p+202", "0x1.ea766264b867dp+202")]

    def test_memory_cap_counts_only_the_primes_used(self, table_2k, monkeypatch):
        # 1999 is the 303rd prime, but a block's angles are one column wide
        monkeypatch.setenv("DIRICHLET_HARDY_MEMORY_CAP", str(30_000_000))
        est = mc_norm(DirichletPolynomial({1: 1, 1999: 1}), 1.0, 16384, 1, table_2k, workers=2)
        assert est.value == pytest.approx(4 / math.pi, rel=0.02)  # E|1 + z| over the circle

    def test_draws_only_the_primes_the_support_uses(self, table_2k, monkeypatch):
        widths = []
        phases = norms._phases

        def recording(top, low, *buffers):
            widths.append(len(top) + len(low))
            return phases(top, low, *buffers)

        monkeypatch.setattr(norms, "_phases", recording)
        f = random_dirichlet(np.random.default_rng(5), 64, 1000)
        mc_norm_many(f, [1.0], 20_000, 3, table_2k)
        primes = {p for n in f.support for p, _ in factor(n)}
        assert len(primes) < table_2k.prime_index(max(primes))  # the support skips primes
        assert widths and set(widths) == {len(primes)}

    def test_golden_stream(self, table_2k):
        # float.hex of (value, std_error) on the stream of two 22-bit angles per hash, two-table
        # phases, node rows, the sequential contraction and the halving fold for the means
        golden = {
            1: [("0x1.5f43b48e0026ap+2", "0x1.2b4d2d6c360e2p-8"),
                ("0x1.79f5e1416253cp+2", "0x1.5d95e4571dce8p-6"),
                ("0x1.d09ae111b61ebp+2", "0x1.faab0903cc92cp+1")],
            2: [("0x1.fc52b9b8873d4p+2", "0x1.6aedb1e5846ddp-8"),
                ("0x1.11c9b8482ba17p+3", "0x1.00113b7807770p-5"),
                ("0x1.520cdc52aae8cp+3", "0x1.91c863012099ap+3")],
        }
        for k, expected in golden.items():
            f = random_dirichlet(np.random.default_rng(k), 64, 1000)
            ests = mc_norm_many(f, [0.5, 1.0, 3.0], 20_000, 8 + k, table_2k)
            assert [(e.value.hex(), e.std_error.hex()) for e in ests] == expected

    def test_oracle_equivalence(self, table_2k):
        # spec tolerates the 3-sigma tail: expect ~99.7% of checks to pass
        rng = np.random.default_rng(12)
        checks, hits = 0, 0
        for case in range(25):
            f = random_sparse(rng)
            exact = {2.0: l2_norm(f).power_mean, 4.0: even_norm_exact(f, 2).power_mean}
            for est in mc_norm_many(f, [2.0, 4.0], 20_000, 1000 + case, table_2k):
                checks += 1
                hits += abs(est.power_mean - exact[est.p]) <= 3 * est.std_error
        assert hits >= checks - 1

    def test_monotone_in_p_same_stream(self, table_2k):
        rng = np.random.default_rng(21)
        for case in range(10):
            f = random_sparse(rng, max_support=20, max_index=200)
            ests = mc_norm_many(f, [0.5, 1.0, 2.0, 4.0], 20_000, case, table_2k)
            for lo, hi in zip(ests, ests[1:]):
                rel = 3 * (
                    lo.value_std_error / lo.value + hi.value_std_error / hi.value
                    if lo.value and hi.value
                    else 0.0
                )
                # where the 3-SE bound is below rounding level (a single-term f has |F|
                # constant up to rounding), allow the few ulps the two means can cross by
                assert lo.value <= hi.value * (1 + max(rel, 4 * sys.float_info.epsilon))

    def test_smooth_truncation_monotone(self, table_2k):
        # truncation to fewer prime variables never increases the quasi-norm
        rng = np.random.default_rng(31)
        for case in range(3):
            f = random_sparse(rng, max_support=30, max_index=300)
            for p in (0.5, 1.0, 2.0, 4.0):
                values = []
                for m in (1, 2, 4, 8, 100):
                    am = smooth_truncation(f, m, table_2k)
                    est = mc_norm(am, p, 30_000, 404 + case, table_2k)
                    values.append((est.value, 3 * est.value_std_error))
                for (lo, slo), (hi, shi) in zip(values, values[1:]):
                    assert lo <= hi + slo + shi
            # exact and strict at p = 2 when the wider window adds mass
            l2s = [l2_norm(smooth_truncation(f, m, table_2k)).value for m in (1, 2, 4, 8, 100)]
            assert all(a <= b + 1e-15 for a, b in zip(l2s, l2s[1:]))
            assert l2s[-1] == pytest.approx(l2_norm(f).value, rel=1e-15)
            assert l2s[0] < l2s[-1]


class TestSteinhausSamples:
    def test_sample_modulus(self):
        s = steinhaus_sample(42, 0, 10)
        assert np.allclose(np.abs(s.values), 1.0)

    def test_evaluate_examples(self, table_2k):
        one = DirichletPolynomial({1: 1})
        s = SteinhausSample(np.exp(2j * np.pi * np.array([0.3])))
        assert evaluate_at_sample(one, s, table_2k) == 1
        six = DirichletPolynomial({6: 1})
        s = SteinhausSample(np.array([1j, -1 + 0j]))
        assert evaluate_at_sample(six, s, table_2k) == pytest.approx(-1j)
        z2 = zeta_partial(2)
        s = SteinhausSample(np.array([1 + 0j]))
        assert evaluate_at_sample(z2, s, table_2k) == pytest.approx(1 + 2**-0.5)

    def test_sample_too_short(self, table_2k):
        with pytest.raises(ValueError):
            evaluate_at_sample(
                DirichletPolynomial({6: 1}), SteinhausSample(np.array([1j])), table_2k
            )

    def test_matches_mc_stream(self, table_2k):
        # evaluation at the published per-index samples reproduces the engine's
        # |F| stream bit for bit (the engine takes numpy's modulus)
        f = DirichletPolynomial({1: 1, 2: 1j, 12: -0.5, 35: 2})
        ests = mc_norm_many(f, [1.0], 16, 77, table_2k)
        mean_abs = ests[0].power_mean
        direct = []
        for i in range(16):
            s = steinhaus_sample(77, i, 11)  # the first 11 primes, up to 31, cover 35 = 5 * 7
            direct.append(np.abs(evaluate_at_sample(f, s, table_2k)))
        assert pairwise_sum(np.array(direct)) / 16 == mean_abs

    @pytest.mark.parametrize("block_points, workers", [(1, 1), (1, 2), (7, 1), (7, 2)])
    def test_engine_reproduces_the_published_stream(self, block_points, workers, table_2k, monkeypatch):
        # primes in every kind of pair: 5 and 1999 (positions 2 and 302) take top halves alone,
        # 2 and 3 share pair 0, and 13 and 1997 (positions 5 and 301) take low halves alone. |F|
        # at each sample is numpy's modulus of evaluate_at_sample at the published sample, bit
        # for bit, at blocks of 1 and 7 points (40 samples leave 5 over) and at one and two workers
        f = DirichletPolynomial({1: 1, 2: -0.5, 6: 2j, 9: 0.25, 5: 1.5, 45: -1j, 13: 0.75, 52: 1 - 1j,
                                 65: 0.5, 1999: 0.5j, 1997: -2})
        plan = norms._lift_plan(f, table_2k)
        assert plan.columns.tolist() == [0, 2, 302, 5, 301, 1]
        absF = []
        monkeypatch.setattr(norms, "pairwise_sum", lambda values: absF.append(np.array(values)) or 0.0)
        monkeypatch.setattr(norms, "_BLOCK_BYTES", 16 * plan.size * block_points)
        mc_norm_many(f, [1.0], 40, 23, table_2k, workers)
        direct = [np.abs(evaluate_at_sample(f, steinhaus_sample(23, i, 303), table_2k)) for i in range(40)]
        assert absF[0].tolist() == direct

    def test_matches_mc_stream_at_high_columns(self, table_2k):
        # 1993 and 1999 are the 301st and 303rd primes; the engine draws 4 of those 303 columns
        f = DirichletPolynomial({1: 1, 1999: 0.5j, 1993: -2, 1994: 1})
        ests = mc_norm_many(f, [1.0], 16, 77, table_2k)
        direct = [np.abs(evaluate_at_sample(f, steinhaus_sample(77, i, 303), table_2k))
                  for i in range(16)]
        assert pairwise_sum(np.array(direct)) / 16 == ests[0].power_mean


class TestDiscNorm:
    def test_monomial(self):
        z = DiscPolynomial(np.array([0, 1.0]))
        for p in (0.5, 1.0, 3.7):
            assert disc_norm(z, p).value == pytest.approx(1.0, rel=1e-14)

    def test_parseval(self):
        f = DiscPolynomial(np.array([1.0, 1.0]))
        assert disc_norm(f, 2).value == pytest.approx(math.sqrt(2), rel=1e-10)
        rng = np.random.default_rng(5)
        g = DiscPolynomial(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        l2 = math.sqrt(sum(abs(c) ** 2 for c in g.coefficients))
        assert disc_norm(g, 2).value == pytest.approx(l2, rel=1e-10)

    def test_p1_value(self):
        f = DiscPolynomial(np.array([1.0, 1.0]))
        assert disc_norm(f, 1, 16384).value == pytest.approx(4 / math.pi, abs=1e-7)

    def test_node_requirement(self):
        f = DiscPolynomial(np.ones(9))
        with pytest.raises(ValueError):
            disc_norm(f, 2, nodes=35)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            disc_norm(DiscPolynomial(np.array([1.0])), 0.0)

    @pytest.mark.parametrize("degree", range(9))
    def test_many_has_the_bits_of_each_p(self, degree):
        # one evaluation of |g| serves every p, in the order given, duplicates included
        rng = np.random.default_rng(degree)
        g = DiscPolynomial(np.r_[rng.standard_normal(degree) + 1j * rng.standard_normal(degree), 1.5 - 0.5j])
        assert g.degree == degree
        ps = [5.0, 0.5, 4 / 3, 1.0, 0.5, 3.0, 2]
        for nodes in (64, 16384):
            many = disc_norm_many(g, ps, nodes)
            assert [e.p for e in many] == [float(p) for p in ps]
            assert [e.value.hex() for e in many] == [disc_norm(g, p, nodes).value.hex() for p in ps]

    def test_power_mean_past_the_float_range(self):
        # |g| reaches 13 on the circle, and 13^400 passes the float range
        g = DiscPolynomial(np.array([10.0, 3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="float range"):
                disc_norm_many(g, [1.0, 400.0], 64)

    def test_many_of_no_p(self):
        assert disc_norm_many(DiscPolynomial(np.array([1.0, 2.0])), []) == []

    @pytest.mark.parametrize("ps, nodes", [([1.0, 0.0], 4096), ([2.0, 3.0, -1.0], 4096), ([1.0], 35),
                                           ([math.nan], 4096), ([1.0, math.inf], 4096)])
    def test_many_checks_before_evaluating(self, ps, nodes, monkeypatch):
        def evaluate(self, z):
            raise AssertionError("evaluated before the arguments were checked")

        monkeypatch.setattr(DiscPolynomial, "__call__", evaluate)
        with pytest.raises(ValueError, match="p must be positive" if nodes > 35 else "36 nodes"):
            disc_norm_many(DiscPolynomial(np.ones(9)), ps, nodes)


class TestDilation:
    def test_identity(self):
        f = DiscPolynomial(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(dilate(f, 1.0).coefficients, f.coefficients)

    def test_scaling(self):
        f = DiscPolynomial(np.array([1.0, 1.0]))
        g = dilate(f, 2**-0.5)
        assert g.coefficients[1] == pytest.approx(2**-0.5)

    def test_domain(self):
        f = DiscPolynomial(np.array([1.0]))
        for r in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                dilate(f, r)

    def test_contractive_example(self):
        f = DiscPolynomial(np.array([1.0, 1.0]))
        lhs = disc_norm(dilate(f, 2**-0.5), 4).value
        assert lhs == pytest.approx(3.25**0.25, rel=1e-12)
        assert lhs <= disc_norm(f, 2).value

    @pytest.mark.parametrize("p,q", [(1.0, 2.0), (2.0, 4.0), (0.5, 1.0)])
    def test_contractivity_random(self, p, q):
        rng = np.random.default_rng(int(10 * (p + q)))
        r = math.sqrt(p / q)
        for _ in range(60):
            deg = int(rng.integers(0, 9))
            f = DiscPolynomial(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
            assert (
                disc_norm(dilate(f, r), q, 16384).value
                <= disc_norm(f, p, 16384).value + 1e-8
            )

    def test_sharpness_witness(self):
        f = DiscPolynomial(np.array([1.0, 0.1]))
        violated = []
        for p, q in [(1.0, 2.0), (2.0, 4.0), (0.5, 1.0)]:
            r = math.sqrt(p / q) + 0.05
            violated.append(
                disc_norm(dilate(f, r), q, 16384).value > disc_norm(f, p, 16384).value
            )
        assert any(violated)


def lift(g: DiscPolynomial) -> DirichletPolynomial:
    """g(z) = sum g_j z^j as the Dirichlet polynomial sum g_j 2^(-js), whose H^p norm is g's disc norm."""
    return DirichletPolynomial({2**j: c for j, c in enumerate(g.coefficients)})


class TestOneVariableInequalities:
    @pytest.mark.parametrize("p", [3.0, 5.0])
    def test_upper(self, p, table_2k):
        rng = np.random.default_rng(int(p))
        for _ in range(60):
            g = random_disc(rng, 8)
            est = disc_norm(g, p, 16384)
            assert est.power_mean <= hl_upper_sum(lift(g), p, table_2k) ** (p / 2) + _slack(est)

    @pytest.mark.parametrize("p", [0.5, 1.0, 4 / 3])
    def test_lower(self, p, table_2k):
        rng = np.random.default_rng(int(10 * p))
        for _ in range(60):
            g = random_disc(rng, 8)
            est = disc_norm(g, p, 16384)
            assert hl_lower_sum(lift(g), p, table_2k) ** (p / 2) <= est.power_mean + _slack(est)

    @pytest.mark.parametrize("p", [0.5, 1.0, 4 / 3, 2.0, 3.0, 5.0])
    def test_lifted_sums_are_the_one_variable_sums(self, p, table_2k):
        # Phi_alpha(2^j) is the one-variable weight, so the sums agree to the last bit
        rng = np.random.default_rng(int(100 * p))
        for _ in range(20):
            g = random_disc(rng, 10)
            squares = [abs(c) ** 2 for c in g.coefficients]
            if p >= 2:
                assert hl_upper_sum(lift(g), p, table_2k) == math.fsum(
                    a * divisor_weight_prime_power(j, p / 2) for j, a in enumerate(squares))
            if p <= 2:
                assert hl_lower_sum(lift(g), p, table_2k) == math.fsum(
                    a / divisor_weight_prime_power(j, 2 / p) for j, a in enumerate(squares))

    def test_squared_coefficient_lower_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            deg = int(rng.integers(0, 8))
            a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            sq = np.convolve(a, a)
            lhs = sum(
                abs(c) ** 2 / binomial_series_coefficient(j, 2) for j, c in enumerate(sq)
            ) ** 0.25
            rhs = math.sqrt(sum(abs(c) ** 2 for c in a))
            assert lhs <= rhs + 1e-10


class TestHomogeneousProjectionBound:
    @pytest.mark.parametrize("p", [0.5, 2 / 3])
    def test_projection_bound_on_random_polynomials(self, p, table_2k):
        # layer energy against sqrt(e) (m+1)^(1/p-1) times the whole norm
        from dirichlet_hardy.dseries import homogeneous_projection

        rng = np.random.default_rng(int(100 * p))
        for case in range(8):
            f = random_sparse(rng, max_support=40, max_index=600)
            whole = mc_norm(f, p, 30_000, 6000 + case, table_2k)
            for m in range(5):
                pm = homogeneous_projection(f, m, table_2k)
                if not len(pm):
                    continue
                est = mc_norm(pm, p, 30_000, 6000 + case, table_2k)
                bound = math.sqrt(math.e) * (m + 1) ** (1 / p - 1) * whole.value
                slack = 3 * (est.value_std_error + math.sqrt(math.e)
                             * (m + 1) ** (1 / p - 1) * whole.value_std_error)
                assert est.value <= bound + slack
