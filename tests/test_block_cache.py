"""The block cache: kept residue blocks change no output, stay read-only and
bounded, and never let a block past the band guard."""

import random

import numpy as np
import pytest

from fermatsyz import bundle
from fermatsyz.bundle import SyzygySpec, _block_entry, first_section, section_space
from fermatsyz.errors import BlockTooLargeError
from fermatsyz.field import binom_uint
from kernel_helpers import binomial_row, certificate_ops, reference_block_entry, section_ops, within


def _cold_then_warm(ops, build):
    """Each op's output from an empty cache, then twice in a row from a cache
    that the other ops filled, where a wrong key would hand over a block of
    another op."""
    cold = []
    for spec, n in ops:
        bundle.clear_block_cache()
        cold.append(build(spec, n))
    for _ in range(2):
        assert [build(spec, n) for spec, n in ops] == cold


def test_cold_and_warm_caches_give_the_same_section_bytes():
    ops = list(section_ops())
    assert len(ops) == 169
    _cold_then_warm(ops, lambda spec, n: [s.serialize() for s in section_space(spec, n)])


def test_cold_and_warm_caches_give_the_same_certificate_sections():
    ops = certificate_ops()
    assert len(ops) == 51
    _cold_then_warm(ops, lambda spec, n: first_section(spec, n).serialize())


# (t, A, B, N) = (1, 1, 3, 1) over F_5 is banded, (0, 0, 0, 2) free
BANDED, FREE = (5, 1, 1, 3, 1), (5, 0, 0, 0, 2)


@pytest.mark.parametrize("block", [BANDED, FREE])
def test_cached_arrays_are_read_only(block):
    for _ in range(2):  # as built, then as read from the cache
        for a in _block_entry(*block):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1


def _kept_bytes():
    sizes = [size for _value, size in bundle._cache.values()]
    assert sum(sizes) == bundle._cache_bytes
    return bundle._cache_bytes


def test_cache_keeps_at_most_its_byte_bound(monkeypatch):
    spec, n = SyzygySpec(3, 4, (9, 9, 9)), 20
    expected = [s.serialize() for s in section_space(spec, n)]
    everything = _kept_bytes()
    assert everything > 0
    bound = everything // 3
    monkeypatch.setattr(bundle, "BLOCK_CACHE_BYTES", bound)
    bundle.clear_block_cache()
    for spec_n in [(spec, n), (SyzygySpec(7, 5, (7, 7, 7)), 15), (spec, n)]:
        got = [s.serialize() for s in section_space(*spec_n)]
        assert 0 < _kept_bytes() <= bound
    assert got == expected


def test_entry_above_the_bound_is_returned_but_not_kept(monkeypatch):
    entry = _block_entry(*BANDED)
    size = sum(a.nbytes for a in entry)
    assert BANDED in bundle._cache
    monkeypatch.setattr(bundle, "BLOCK_CACHE_BYTES", size - 1)
    bundle.clear_block_cache()
    small = (5, 0, 0, 0, 0)  # a free block that fits under the lowered bound
    _block_entry(*small)
    kept = _kept_bytes()
    again = _block_entry(*BANDED)
    assert all(np.array_equal(a, b) for a, b in zip(again, entry))
    # keeping the large entry would evict every other one, and then itself
    assert list(bundle._cache) == [small]
    assert _kept_bytes() == kept < size


def test_cache_evicts_the_least_recently_used(monkeypatch):
    # three free blocks of t = 0
    a, b, c = [(5, 0, 0, 0, N) for N in (2, 3, 4)]
    size_c = sum(x.nbytes for x in _block_entry(*c))
    bundle.clear_block_cache()
    _block_entry(*a)
    _block_entry(*b)
    # room for c once one entry goes; a is used again, so b is the least recent
    monkeypatch.setattr(bundle, "BLOCK_CACHE_BYTES", _kept_bytes() + size_c - 1)
    _block_entry(*a)
    _block_entry(*c)
    assert a in bundle._cache and c in bundle._cache
    assert b not in bundle._cache
    assert _kept_bytes() <= bundle.BLOCK_CACHE_BYTES


def test_band_guard_refuses_a_cached_block(monkeypatch):
    # the guard runs on every lookup, before the cache: a block kept under
    # the old limit is refused under a lower one
    entry = _block_entry(*BANDED)
    assert BANDED in bundle._cache
    band_bytes = 1 * (BANDED[4] + 1) * 8  # one band row of N + 1 columns
    monkeypatch.setattr(bundle, "BAND_LIMIT_BYTES", band_bytes - 1)
    with pytest.raises(BlockTooLargeError, match=f"needs a band of {band_bytes:,} bytes"):
        _block_entry(*BANDED)
    monkeypatch.setattr(bundle, "BAND_LIMIT_BYTES", band_bytes)
    assert _block_entry(*BANDED) is entry
    # a twist whose blocks and records a warm pass holds is refused, by both
    # section_space and first_section, with the refusal of a cold cache: the
    # quintic's twist 30 of (16, 16, 16) over F_2 has a band of 24 bytes
    spec, n = SyzygySpec(2, 5, (16, 16, 16)), 30
    calls = (section_space, first_section)
    monkeypatch.setattr(bundle, "BAND_LIMIT_BYTES", 23)
    cold = []
    for call in calls:
        bundle.clear_block_cache()
        with pytest.raises(BlockTooLargeError) as refused:
            call(spec, n)
        cold.append(str(refused.value))
    assert cold == ["block (t, A, B, N) = (3, 4, 3, 2) needs a band of 24 bytes, above the limit of 23"] * 2
    monkeypatch.undo()
    for call in calls:
        call(spec, n)
    monkeypatch.setattr(bundle, "BAND_LIMIT_BYTES", 23)
    for call, message in zip(calls, cold):
        with pytest.raises(BlockTooLargeError) as refused:
            call(spec, n)
        assert str(refused.value) == message


# (t, A, B, N) = (2, 2, 3, 1) over F_5 has a band of 2 entries and a product
# of 3 x 2; (3, 0, 2, 4) is free, with a product of 5 x 4 and no band
@pytest.mark.parametrize("block", [(5, 2, 2, 3, 1), (5, 3, 0, 2, 4)], ids=["banded", "free"])
def test_block_whose_band_fits_but_whose_product_does_not_is_refused(monkeypatch, block):
    p, t, A, B, N = block
    lo, hi = bundle._band_rows(t, A, B, N)
    entry = _block_entry(*block)
    kernel_nonzeros = np.count_nonzero(entry[1][1] == 0)  # the s1 entries
    # t < p is one base-p digit, so the product is one step of nnz(K) (t + 1)
    product = kernel_nonzeros * np.count_nonzero(binomial_row(t, p)) * 8
    assert (hi - lo) * (N + 1) * 8 < product
    bundle.clear_block_cache()
    monkeypatch.setattr(bundle, "BAND_LIMIT_BYTES", product - 1)
    if lo == hi:  # a free block is refused before any binomial is computed
        monkeypatch.setattr(bundle, "binom_uint", lambda *_: pytest.fail("binomial computed"))
    with pytest.raises(BlockTooLargeError, match=f"needs a product of {product:,} bytes"):
        _block_entry(*block)
    assert block not in bundle._cache
    monkeypatch.undo()
    monkeypatch.setattr(bundle, "BAND_LIMIT_BYTES", product)
    assert all(np.array_equal(a, b) for a, b in zip(_block_entry(*block), entry))


def test_multi_digit_product_is_refused_at_the_digit_step_past_the_limit(monkeypatch):
    # the free block (t, A, B, N) = (5355, 0, 5355, 2) over F_13: t has the
    # base-13 digits 12, 8, 5, 2, lowest first, and the product takes one
    # step per digit.  Step k multiplies the nonzeros of K (1 + x)^(t mod
    # 13^k), K the identity's N + 1 rows, by the r + 1 binomials of its
    # digit r; the limit below lets steps 0 and 1 through and not step 2
    block = p, t, A, B, N = 13, 5355, 0, 5355, 2
    assert bundle._band_rows(t, A, B, N) == (3, 3)  # free
    sizes, scale = [], 1
    for r in (12, 8, 5, 2):
        sizes.append((N + 1) * np.count_nonzero(binomial_row(t % scale, p)) * (r + 1) * 8)
        scale *= p
    assert sizes == [312, 2808, 16848, 50544]
    bundle.clear_block_cache()
    monkeypatch.setattr(bundle, "BAND_LIMIT_BYTES", sizes[2] - 1)
    with pytest.raises(BlockTooLargeError, match=f"needs a product of {sizes[2]:,} bytes"):
        _block_entry(*block)
    assert not bundle._cache
    monkeypatch.setattr(bundle, "BAND_LIMIT_BYTES", sizes[3])
    pivots, nonzeros = _block_entry(*block)
    want = reference_block_entry(*block)
    assert np.array_equal(pivots, want[0])
    order = np.lexsort(nonzeros[2::-1])
    assert all(np.array_equal(a[order], b) for a, b in zip(nonzeros, want[1:]))


def test_the_deep_binomial_product_is_digit_by_digit():
    # (1 + x)^t at t = 8,184,589 over F_13 has 61,600 nonzeros, the product
    # of r + 1 over t's base-13 digits; its t + 1 entries one binom_uint at a
    # time take about 18 s.  Built by digits it is checked against
    # binom_uint at 500 seeded v and at 500 seeded nonzeros
    t, p = 8184589, 13
    one = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    v, c = within(5, bundle._times_binomial, *one, t, p, (t, 0, 0, 0))
    assert len(v) == 61600
    assert np.all(np.diff(v) > 0) and np.all((c > 0) & (c < p))
    rng = random.Random(2029)
    got = dict(zip(v.tolist(), c.tolist()))
    for x in rng.sample(range(t + 1), 500) + rng.sample(sorted(got), 500):
        assert got.get(x, 0) == binom_uint(t, x, p), x


def test_first_section_reads_the_least_x_exponent_and_guards_every_block(monkeypatch):
    # twist 45 of (27, 27, 27) over F_3 on the quintic has classes with a
    # kernel at X-exponents 0..4.  Row 0 lies at X-exponent 0, whose three
    # blocks have bands of at most 64 bytes; the block (5, 6, 6, 3), first
    # met at X-exponent 1, has one of 96
    spec, n = SyzygySpec(3, 5, (27, 27, 27)), 45
    row0 = section_space(spec, n)[0].serialize()
    bundle.clear_block_cache()
    assert first_section(spec, n).serialize() == row0
    assert sorted(bundle._cache) == [(3, 5, 5, 5, 2), (3, 5, 5, 6, 3), (3, 5, 6, 5, 3)]
    # the blocks that are read are cached and fit under 80 bytes; the guard
    # still refuses the twist for the block that is not read
    monkeypatch.setattr(bundle, "BAND_LIMIT_BYTES", 80)
    with pytest.raises(BlockTooLargeError, match=r"\(5, 6, 6, 3\) needs a band of 96 bytes"):
        first_section(spec, n)


def test_a_warm_pass_builds_no_block(monkeypatch):
    # the benchmark's steady state: once one pass over the sections twists
    # and the grid's certificates has filled the cache, a second pass finds
    # every block there, and the cache stays inside its byte bound
    sections, certificates = list(section_ops()), certificate_ops()

    def one_pass():
        for spec, n in sections:
            section_space(spec, n)
        for spec, n in certificates:
            first_section(spec, n)

    # every block's product, free or banded, goes through _times_binomial
    products = []
    real = bundle._times_binomial
    monkeypatch.setattr(
        bundle, "_times_binomial", lambda *args: products.append(args[-1]) or real(*args)
    )
    bundle.clear_block_cache()
    one_pass()
    assert 0 < _kept_bytes() <= bundle.BLOCK_CACHE_BYTES
    assert {key[1:] for key in bundle._cache} <= set(products)
    products.clear()
    one_pass()
    assert products == []


def test_a_warm_pass_computes_no_closed_form(monkeypatch):
    # once one pass has filled the caches, every block lookup of a second
    # pass reads the block's record: with every closed form refused, it
    # writes the same bytes
    sections, certificates = list(section_ops()), certificate_ops()

    def one_pass():
        return (
            [[s.serialize() for s in section_space(spec, n)] for spec, n in sections],
            [first_section(spec, n).serialize() for spec, n in certificates],
        )

    bundle.clear_block_cache()
    cold = one_pass()

    def refuse(*_args):
        raise AssertionError("a closed form was computed")

    for name in ("_nullity", "_band_rows", "_syzygy_degrees"):
        monkeypatch.setattr(bundle, name, refuse)
    assert one_pass() == cold
