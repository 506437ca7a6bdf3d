import pytest

from macsecsim.randomness import IvUniquenessRegistry, RandomSource


def test_seeded_source_is_reproducible():
    a, b = RandomSource(5), RandomSource(5)
    assert a.rand_bytes(16) == b.rand_bytes(16)
    assert a.boot_seq() == b.boot_seq()
    assert RandomSource(5).rand_bytes(16) != RandomSource(6).rand_bytes(16)


def test_nonce_reuse_is_a_hard_error():
    src = RandomSource(5)
    nonce = src.lldp_nonce()
    src._nonces_issued.discard(nonce)  # rewind the book-keeping
    src._rng.seed(5)  # force the generator to repeat itself
    src._nonces_issued.add(src.lldp_nonce())
    src._rng.seed(5)
    with pytest.raises(AssertionError, match="nonce reuse"):
        src.lldp_nonce()


def test_iv_registry_flags_reuse():
    reg = IvUniquenessRegistry()
    sci = b"s" * 8
    reg.observe(b"k" * 16, sci, 1)
    reg.observe(b"k" * 16, sci, 2)
    with pytest.raises(AssertionError, match="reuse"):
        reg.observe(b"k" * 16, sci, 2)


def test_iv_registry_rejects_a_pn_below_the_highest_seen():
    reg = IvUniquenessRegistry()
    sci = b"s" * 8
    reg.observe(b"k" * 16, sci, 5)
    with pytest.raises(AssertionError, match="PN regression"):
        reg.observe(b"k" * 16, sci, 3)  # never used, but below 5


def test_iv_registry_tracks_each_sci_under_a_key_on_its_own():
    reg = IvUniquenessRegistry()
    reg.observe(b"k" * 16, b"a" * 8, 5)
    reg.observe(b"k" * 16, b"b" * 8, 1)
    reg.observe(b"k" * 16, b"b" * 8, 2)
    with pytest.raises(AssertionError, match="reuse"):
        reg.observe(b"k" * 16, b"b" * 8, 2)
    assert len(reg._seen) == 2
