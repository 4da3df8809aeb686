"""Pinned-PRNG contract tests.

The golden vectors below were produced by a separate C implementation of
splitmix64, xoshiro256**, and the top-down Fisher-Yates shuffle, compiled
and run independently of this package. Any change that breaks these
values breaks split reproducibility across languages.
"""

from __future__ import annotations

import pytest

from ecoamlp.rng import (
    Xoshiro256StarStar,
    _splitmix64_stream,
    fisher_yates,
    subseed,
)

SPLITMIX_GOLDEN = {
    0: (
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ),
    1: (
        10451216379200822465,
        13757245211066428519,
        17911839290282890590,
        8196980753821780235,
    ),
    42: (
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ),
    123456789: (
        2466975172287755897,
        8832083440362974766,
        3534771765162737125,
        9592110948284743397,
    ),
    2**64 - 1: (
        16490336266968443936,
        16834447057089888969,
        4048727598324417001,
        7862637804313477842,
    ),
}

XOSHIRO_GOLDEN = {
    0: (
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
        7684712102626143532,
        13521403990117723737,
        18442103541295991498,
        7788427924976520344,
        9881088229871127103,
    ),
    1: (
        12966619160104079557,
        9600361134598540522,
        10590380919521690900,
        7218738570589545383,
        12860671823995680371,
        2648436617965840162,
        1310552918490157286,
        7031611932980406429,
    ),
    42: (
        1546998764402558742,
        6990951692964543102,
        12544586762248559009,
        17057574109182124193,
        18295552978065317476,
        14199186830065750584,
        13267978908934200754,
        15679888225317814407,
    ),
    123456789: (
        15127205273500847298,
        16265768176396019016,
        1514321867679316104,
        9853693475100939714,
        16001046604883718113,
        8931005260488469461,
        6489297192028154687,
        12022421923150254172,
    ),
    2**64 - 1: (
        10328197420357168392,
        14156678507024973869,
        9357971779955476126,
        13791585006304312367,
        10463432026814718762,
        13498236496097551653,
        6831296623176769502,
        14161350843019729634,
    ),
}

FY10_GOLDEN = {
    0: [4, 2, 1, 7, 5, 6, 3, 9, 8, 0],
    7: [8, 3, 9, 0, 7, 2, 1, 6, 5, 4],
    2026: [3, 4, 8, 5, 6, 0, 1, 2, 7, 9],
}


@pytest.mark.parametrize("seed", sorted(SPLITMIX_GOLDEN))
def test_splitmix64_matches_reference(seed):
    stream = _splitmix64_stream(seed)
    assert tuple(next(stream) for _ in range(4)) == SPLITMIX_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(XOSHIRO_GOLDEN))
def test_xoshiro_matches_reference(seed):
    gen = Xoshiro256StarStar(seed)
    assert tuple(gen.next_uint64() for _ in range(8)) == XOSHIRO_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(FY10_GOLDEN))
def test_fisher_yates_matches_reference(seed):
    assert fisher_yates(list(range(10)), seed) == FY10_GOLDEN[seed]


def test_fisher_yates_is_a_permutation():
    for seed in range(25):
        out = fisher_yates(list(range(31)), seed)
        assert sorted(out) == list(range(31))


def test_fisher_yates_leaves_input_untouched():
    items = list(range(10))
    fisher_yates(items, 3)
    assert items == list(range(10))


def test_randbelow_is_in_range():
    gen = Xoshiro256StarStar(5)
    values = [gen.randbelow(7) for _ in range(200)]
    assert set(values) <= set(range(7))
    assert len(set(values)) == 7


def test_subseed_determinism_and_tag_sensitivity():
    assert subseed(3, 1, 2) == subseed(3, 1, 2)
    distinct = {
        subseed(3),
        subseed(3, 1),
        subseed(3, 2),
        subseed(3, 1, 2),
        subseed(3, 2, 1),
        subseed(4, 1, 2),
    }
    assert len(distinct) == 6
    assert all(0 <= s < 2**64 for s in distinct)
