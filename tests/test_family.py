"""Residue-family thresholds against elimination.

``first_section_twist``, ``section_space_dim`` and the search built on
them eliminate nothing: they read Han's syzygy gap in closed form.  These
tests keep the dense path and the per-family band elimination as oracles.
"""

import itertools
import math
import random

import numpy as np
import pytest

from fermatsyz import _kernels
from fermatsyz.bundle import (
    SyzygySpec,
    _han_gap,
    _nullity,
    _structured_kernel,
    _syzygy_degrees,
    first_section_twist,
    section_space_dim,
)
from fermatsyz.field import binom_uint
from fermatsyz.linalg import MatrixModP
from fermatsyz.stability import DestabCertificate, search_destabilization
from kernel_helpers import dense_band, dense_kernel, dense_section, kernel_basis, to_dense

EQUAL = [(a, a, a) for a in (1, 2, 3, 5)]
UNEQUAL = [(2, 3, 4), (4, 1, 3), (1, 5, 2), (6, 2, 5)]


# larger exponents, for the per-twist block scan only: A, B and t reach 2..10
LARGE = [(22, 28, 17), (18, 6, 30), (13, 9, 11), (31, 24, 39), (27, 27, 27)]


# per (d, exponents) of the dense half, the lo in [a1, a1 + 3 d] that fall,
# for some p in {2, 3, 5, 7}, in a gap between the base twists of a box at
# a level at or above its threshold: the box has no twist at lo, and only
# the ray says that another one has
GAP_WINDOWS = {
    (2, (1, 1, 1)): [3, 4, 5, 6, 7],
    (2, (3, 3, 3)): [5, 6, 7, 8, 9],
    (2, (5, 5, 5)): [7, 8, 9, 10, 11],
    (3, (1, 1, 1)): [4, 5, 6, 7, 8, 9, 10],
    (3, (1, 5, 2)): [7, 8, 9, 10],
    (3, (2, 2, 2)): [6, 7, 8, 9, 10, 11],
    (3, (5, 5, 5)): [10, 11, 12, 13, 14],
    (4, (1, 1, 1)): [5, 6, 7, 8, 9, 10, 11, 12, 13],
    (4, (1, 5, 2)): [8, 9, 10, 11, 12, 13],
    (4, (3, 3, 3)): [9, 10, 11, 12, 13, 14, 15],
    (4, (5, 5, 5)): [9, 10, 11, 12, 13, 14, 15, 16, 17],
    (4, (6, 2, 5)): [11, 13, 15, 17],
    (5, (1, 1, 1)): [6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    (5, (2, 2, 2)): [9, 14],
    (5, (2, 3, 4)): [13, 15, 16],
    (5, (3, 3, 3)): [13, 18],
    (5, (4, 1, 3)): [9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
    (6, (1, 1, 1)): [7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
    (6, (1, 5, 2)): [13, 14, 15, 16, 17, 18, 19],
    (6, (2, 2, 2)): [10, 11, 16, 17],
    (6, (2, 3, 4)): [15, 18],
    (6, (4, 1, 3)): [11, 12, 14, 15, 17, 18, 20, 21],
    (6, (5, 5, 5)): [15, 16, 17, 18, 19, 20, 21, 22, 23],
    (7, (1, 1, 1)): [8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22],
    (7, (1, 5, 2)): [13, 15, 16, 17, 18, 20, 22],
    (7, (2, 2, 2)): [11, 12, 13, 18, 19, 20],
    (7, (2, 3, 4)): [17],
    (7, (4, 1, 3)): [13, 16, 17, 20, 23, 24],
    (7, (5, 5, 5)): [19, 20, 21, 26],
    (7, (6, 2, 5)): [14, 15, 16, 17, 19, 21, 22, 23, 24, 26],
    (8, (1, 1, 1)): [9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25],
    (8, (1, 5, 2)): [14, 15, 17, 18, 19, 20, 22, 23, 25],
    (8, (2, 2, 2)): [12, 13, 14, 15, 20, 21, 22, 23],
    (8, (2, 3, 4)): [15, 19, 23],
    (8, (3, 3, 3)): [15, 23],
    (8, (4, 1, 3)): [14, 15, 18, 19, 22, 23, 26, 27],
    (8, (5, 5, 5)): [22],
    (8, (6, 2, 5)): [16, 17, 18, 21, 24, 25, 26, 29],
}


def _first(spec, lo, hi, method):
    return next((n for n in range(lo, hi + 1) if section_space_dim(spec, n, method)), None)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_first_section_twist_matches_dense_scan(p):
    # the dense half for p <= 7; the structured half also at p = 11 and 13,
    # the primes of the deep cells, with d up to 30 and p not dividing d
    for d, exps in itertools.product(range(1, 9) if p <= 7 else (), EQUAL + UNEQUAL):
        koszul = exps[1] + exps[2]
        spec = SyzygySpec(p, d, exps)
        windows = [
            (max(exps) + 1, (3 * max(exps) + 1) // 2 - 1),  # destabilizing window
            (0, koszul - 1),  # stops just below the Koszul twist
            (max(exps), koszul),  # ends at it
            (koszul, koszul + 2),  # starts at it
            (koszul + 1, koszul + d + 1),  # above it
        ]
        windows += [(lo, lo + d) for lo in GAP_WINDOWS.get((d, exps), ())]
        for lo, hi in windows:
            expected = _first(spec, lo, hi, "dense")
            assert first_section_twist(spec, lo, hi) == expected, (p, d, exps, lo, hi)
    degrees = range(1, 13) if p <= 7 else [d for d in range(1, 31) if d % p]
    for d, exps in itertools.product(degrees, LARGE):
        spec = SyzygySpec(p, d, exps)
        m = max(exps)
        for lo, hi in ((m + 1, (3 * m + 1) // 2 - 1), (min(exps), exps[1] + exps[2] + 1)):
            expected = _first(spec, lo, hi, "structured")
            assert first_section_twist(spec, lo, hi) == expected, (p, d, exps, lo, hi)


def _assert_ray(spec, dims):
    # dims[n] for n = 0, 1, ...: once a twist has a section, so has every larger one
    first = next((n for n, v in enumerate(dims) if v), len(dims))
    assert all(dims[first:]), (spec, dims)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_twists_with_a_section_form_a_ray(p):
    # Z is a non-zero-divisor on the Fermat ring, also when p divides d,
    # and F_p[X, Y, Z] is a domain: multiplying by Z embeds the degree-n
    # syzygies in the degree-(n + 1) ones.  first_section_twist relies on it
    for d, exps in itertools.product(sorted({0, 3, 4, p, 2 * p}), EQUAL + UNEQUAL):
        spec = SyzygySpec(p, d, exps)
        top = exps[1] + exps[2] + 1  # the Koszul family has a section from a2 + a3 on
        _assert_ray(spec, [section_space_dim(spec, n, "dense") for n in range(top)])
    rng = random.Random(p)
    for _ in range(80):
        d = rng.choice([0, p * rng.randint(1, 24 // p), rng.randint(1, 24)])
        exps = tuple(rng.randint(1, 60) for _ in range(3))
        spec = SyzygySpec(p, d, exps)
        _assert_ray(spec, [section_space_dim(spec, n) for n in range(exps[1] + exps[2] + 2)])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_plane_runs_through_the_family_path(p):
    # d = 0 uses an effective degree above every twist in play; the dense
    # plane elimination, with no relation at all, is the oracle
    for exps in EQUAL + UNEQUAL:
        spec = SyzygySpec(p, 0, exps)
        top = sum(exps) + 2
        for n in range(top + 1):
            dense = to_dense(spec, n, dense_kernel(spec, n))
            assert np.array_equal(to_dense(spec, n, _structured_kernel(spec, n)), dense), (p, exps, n)
        koszul = exps[1] + exps[2]
        m = max(exps)
        windows = [
            (m + 1, (3 * m + 1) // 2 - 1),  # destabilizing window
            (0, koszul - 1),
            (min(exps), koszul),
            (koszul, koszul + 2),
            (koszul + 1, top),
            (0, top),
            (top, 2),  # empty
            (-2, -1),  # empty, effective degree 0
        ]
        for lo, hi in windows:
            expected = _first(spec, lo, hi, "dense")
            assert first_section_twist(spec, lo, hi) == expected, (p, exps, lo, hi)


def _band_nullity(t, A, B, N, p):
    block = dense_band(t, A, B, N, p)
    if not block.shape[0]:
        return N + 1
    return N + 1 - _kernels.rref_mod_p(np.array(block), p)[0]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closed_form_gap_matches_band_elimination(p):
    # every family block with t, A, B <= 10, up to the level where the
    # Koszul syzygies take over: nullity and threshold against elimination
    for t, A, B in itertools.product(range(11), repeat=3):
        nullities = []
        for N in range(A + B + t + 3):
            nullities.append(_band_nullity(t, A, B, N, p))
            assert _nullity(p, t, A, B, N) == nullities[-1], (p, t, A, B, N)
        n_star = next(N for N, v in enumerate(nullities) if v)
        assert max(0, _syzygy_degrees(p, t, A, B)[0] - t) == n_star, (p, t, A, B)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_a_block_has_a_kernel_exactly_from_its_threshold(p):
    # first_section picks the blocks with a kernel by N + t >= m1, i.e.
    # N >= N* = max(0, m1 - t), not by the closed-form nullity
    for t, A, B in itertools.product(range(13), repeat=3):
        m1 = _syzygy_degrees(p, t, A, B)[0]
        for N in range(20):
            assert (N + t >= m1) == (_nullity(p, t, A, B, N) > 0), (p, t, A, B, N)


def _degree(f):
    nz = np.flatnonzero(f)
    return int(nz[-1]) if len(nz) else -math.inf


def _euclid_m1(p, t, A, B):
    """m1 of (u^A, w^B, (u + w)^t) by the extended Euclidean algorithm, with
    no elimination and no step of ``_han_gap``.

    With w = 1 and u = x, a syzygy of degree D is a pair (f, r) with
    f (1 + x)^t = r mod x^A, deg f <= D - t and deg r <= D - B, or the Koszul
    syzygy at D = A + B.  Euclid on x^A and T = (1 + x)^t mod x^A yields
    remainders r_i with cofactors s_i T = r_i mod x^A, and the least such D
    is reached at one of them (Brent, Gustavson and Yun, J. Algorithms
    1980); s_0 = 0 with r_0 = x^A is the Koszul syzygy.
    """
    r0 = np.zeros(A + 1, dtype=np.int64)
    r0[A] = 1
    r1 = np.zeros(A, dtype=np.int64)  # (1 + x)^t mod (p, x^A), by Pascal's rule
    r1[:1] = 1
    for _ in range(t):
        r1[1:] = (r1[1:] + r1[:-1]) % p
    s0, s1 = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    best = A + B
    while True:
        top = _degree(r1)
        best = min(best, max(_degree(s1) + t, top + B))
        if top < 0:
            return best
        inv = pow(int(r1[top]), -1, p)
        shift = _degree(r0) - top  # >= 1: the remainders' degrees fall
        q, rem = np.zeros(shift + 1, dtype=np.int64), r0.copy()
        for k in range(shift, -1, -1):
            c = rem[k + top] * inv % p
            if c:
                q[k] = c
                rem[k : k + top + 1] = (rem[k : k + top + 1] - c * r1[: top + 1]) % p
        qs = np.convolve(q, s1) % p
        s2 = np.zeros(max(len(qs), len(s0)), dtype=np.int64)
        s2[: len(s0)] += s0
        s2[: len(qs)] -= qs
        r0, r1, s0, s1 = r1, rem, s1, s2 % p


def test_han_gap_matches_the_euclid_oracle():
    # every (t, A, B) <= 10, zeros included, then seeded random boxes below
    # 400 and the (13, 16, 3, 4) certificate block, with no elimination
    cases = [(p, *k) for p in (2, 3, 5, 7) for k in itertools.product(range(11), repeat=3)]
    rng = random.Random(2029)
    for _ in range(300):
        cases.append((rng.choice((2, 3, 5, 7, 11, 13)), *(rng.randrange(400) for _ in range(3))))
    cases.append((13, 5355, 5355, 5355))
    for p, t, A, B in cases:
        m1 = _euclid_m1(p, t, A, B)
        assert m1 == _syzygy_degrees(p, t, A, B)[0], (p, t, A, B)
        assert max(0, m1 - t) == max(0, _syzygy_degrees(p, t, A, B)[0] - t), (p, t, A, B)
    assert max(0, _syzygy_degrees(13, 5355, 5355, 5355)[0] - 5355) == 2677


def test_han_gap_takes_the_largest_level():
    # p = 2, k = (3, 4, 4): q = 1 and q = 4 both qualify, with values 1 and
    # 3; taking the first qualifying level instead of the largest value
    # would give 1 and move the threshold from 1 to 2
    assert _han_gap(2, 3, 4, 4) == 3
    assert max(0, _syzygy_degrees(2, 3, 4, 4)[0] - 3) == 1
    assert [_band_nullity(3, 4, 4, N, 2) for N in range(3)] == [0, 1, 2]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_family_kernel_monotone_in_level(p):
    for t, A, B in itertools.product(range(0, 12), range(0, 7), range(0, 7)):
        binoms = [binom_uint(t, v, p) for v in range(t + 1)]
        nullities = []
        for N in range(min(A, B) + 3):
            block = dense_band(t, A, B, N, p)
            nullities.append(_band_nullity(t, A, B, N, p))
            # every kernel vector f satisfies f (u + w)^t in (u^A, w^B)
            if block.shape[0]:
                for f in kernel_basis(MatrixModP(block, p)):
                    prod = np.zeros(N + t + 1, dtype=np.int64)  # coefficient of u^gamma
                    for alpha, c in enumerate(f):
                        prod[alpha : alpha + t + 1] += int(c) * np.array(binoms)
                    bad = [g for g in range(N + t + 1) if g < A and N + t - g < B]
                    assert not np.any(prod[bad] % p), (p, t, A, B, N)
        # multiplication by u embeds the level-N kernel into level N + 1
        assert nullities == sorted(nullities), (p, t, A, B, nullities)
        n_star = max(0, _syzygy_degrees(p, t, A, B)[0] - t)
        assert nullities[n_star] > 0 and (n_star == 0 or nullities[n_star - 1] == 0)


def test_frobenius_pullback_never_raises_the_first_twist():
    # the p-th power of a degree-n section of Syz(X^aq, Y^aq, Z^aq) is a
    # degree-pn section of the next level's bundle, so the first twist with
    # a section at level e + 1 is at most p times the one at level e.  The
    # closed-form thresholds share no step with this argument.  Checked on
    # the plane and every smooth curve with d <= 12, for a = 1 and every
    # level pair with p^(e + 1) < 2^40; d <= 24 and a <= 3 (6,124 pairs)
    # take about four times as long
    for p in (2, 3, 5, 7, 11, 13):
        for d in [0] + [d for d in range(1, 13) if d % p]:
            aq = 1
            first = first_section_twist(SyzygySpec(p, d, (aq, aq, aq)), 0, 3 * aq)
            while aq * p < 2**40:
                aq *= p
                pulled = first_section_twist(SyzygySpec(p, d, (aq, aq, aq)), 0, 3 * aq)
                assert pulled <= p * first, (p, d, aq)
                first = pulled


def _dense_search(p, d, a, e_max):
    for e in range(e_max + 1):
        aq = a * p**e
        spec = SyzygySpec(p, d, (aq, aq, aq))
        for n in range((aq + 1), (3 * aq + 1) // 2):
            section = dense_section(spec, n)
            if section is not None:
                return e, n, section
    return None


@pytest.mark.parametrize(
    "p, e_max, ds",
    [(2, 3, range(3, 12, 2)), (3, 2, (4, 5, 7, 8, 10)), (5, 2, (4, 6, 7)), (7, 1, (4, 5, 6))],
)
def test_search_matches_per_twist_dense_scan(p, e_max, ds):
    for d, a in itertools.product(ds, (1, 2, 3)):
        expected = _dense_search(p, d, a, e_max)
        cert = search_destabilization(p, d, a, e_max)
        if expected is None:
            assert cert is None, (p, d, a)
        else:
            e, n, section = expected
            assert (cert.e, cert.twist) == (e, n), (p, d, a)
            oracle = DestabCertificate(p, a, d, e, n, section)
            assert cert.to_json_dict() == oracle.to_json_dict(), (p, d, a)
