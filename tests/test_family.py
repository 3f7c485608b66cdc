"""Residue-family thresholds against dense elimination.

``first_section_twist`` and the search built on it never eliminate the
full syzygy matrix; these tests keep the dense path as the oracle.
"""

import itertools

import numpy as np
import pytest

from fermatsyz.bundle import (
    SyzygySpec,
    _band,
    _binom_row,
    _family_threshold,
    _rank,
    first_section_twist,
    has_section,
    section_space,
)
from fermatsyz.field import binom_uint
from fermatsyz.linalg import MatrixModP
from fermatsyz.stability import _build_certificate, search_destabilization

EQUAL = [(a, a, a) for a in (1, 2, 3, 5)]
UNEQUAL = [(2, 3, 4), (4, 1, 3), (1, 5, 2), (6, 2, 5)]


# larger exponents, for the per-twist block scan only: A, B and t reach 2..10
LARGE = [(22, 28, 17), (18, 6, 30), (13, 9, 11), (31, 24, 39), (27, 27, 27)]


def _first(spec, lo, hi, method):
    return next((n for n in range(lo, hi + 1) if has_section(spec, n, method)), None)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_first_section_twist_matches_dense_scan(p):
    for d, exps in itertools.product(range(1, 9), EQUAL + UNEQUAL):
        koszul = exps[1] + exps[2]
        spec = SyzygySpec(p, d, exps)
        windows = [
            (max(exps) + 1, (3 * max(exps) + 1) // 2 - 1),  # destabilizing window
            (0, koszul - 1),  # stops just below the Koszul twist
            (max(exps), koszul),  # ends at it
            (koszul, koszul + 2),  # starts at it
            (koszul + 1, koszul + d + 1),  # above it
        ]
        for lo, hi in windows:
            expected = _first(spec, lo, hi, "dense")
            assert first_section_twist(spec, lo, hi) == expected, (p, d, exps, lo, hi)
    for d, exps in itertools.product(range(1, 13), LARGE):
        spec = SyzygySpec(p, d, exps)
        m = max(exps)
        for lo, hi in ((m + 1, (3 * m + 1) // 2 - 1), (min(exps), exps[1] + exps[2] + 1)):
            expected = _first(spec, lo, hi, "structured")
            assert first_section_twist(spec, lo, hi) == expected, (p, d, exps, lo, hi)
    with pytest.raises(ValueError):
        first_section_twist(SyzygySpec(p, 0, (2, 2, 2)), 3, 4)


def _nullity(block, p):
    return block.shape[1] - (_rank(block, p) if block.shape[0] else 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_family_kernel_monotone_in_level(p):
    cache = {}
    for t, A, B in itertools.product(range(0, 12), range(0, 7), range(0, 7)):
        row = _binom_row(t, p, cache)
        binoms = [binom_uint(t, v, p) for v in range(t + 1)]
        nullities = []
        for N in range(min(A, B) + 3):
            block = _band(t, A, B, N, row)
            nullities.append(_nullity(block, p))
            # every kernel vector f satisfies f (u + w)^t in (u^A, w^B)
            if block.shape[0]:
                for f in MatrixModP(block, p).kernel_basis():
                    prod = np.zeros(N + t + 1, dtype=np.int64)  # coefficient of u^gamma
                    for alpha, c in enumerate(f):
                        prod[alpha : alpha + t + 1] += int(c) * np.array(binoms)
                    bad = [g for g in range(N + t + 1) if g < A and N + t - g < B]
                    assert not np.any(prod[bad] % p), (p, t, A, B, N)
        # multiplication by u embeds the level-N kernel into level N + 1
        assert nullities == sorted(nullities), (p, t, A, B, nullities)
        n_star = _family_threshold(t, A, B, 0, min(A, B) + 2, p, row)
        assert nullities[n_star] > 0 and (n_star == 0 or nullities[n_star - 1] == 0)


def _dense_search(p, d, a, e_max):
    for e in range(e_max + 1):
        aq = a * p**e
        spec = SyzygySpec(p, d, (aq, aq, aq))
        for n in range((aq + 1), (3 * aq + 1) // 2):
            if has_section(spec, n, "dense"):
                return e, n, section_space(spec, n, "dense")[0]
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
            oracle = _build_certificate(p, a, d, e, p**e, n, section)
            assert cert.to_json_dict() == oracle.to_json_dict(), (p, d, a)
