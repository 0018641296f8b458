"""System-wide cryptographic parameters.

The paper instantiates the protocols in a Schnorr group with a 1024-bit
field prime ``p`` and a 160-bit order ``q`` (Section 5). Generating such
parameters is expensive, so two pre-generated, verified parameter sets are
embedded:

* :func:`default_params` — the paper's 1024/160 sizes, for benchmarks and
  examples;
* :func:`test_params` — a 512/160 group that keeps the exact same protocol
  code paths but runs the test suite an order of magnitude faster.

Both sets were produced by :func:`repro.crypto.numbers.generate_group_parameters`
with fixed seeds. Re-running Miller–Rabin on them in every process costs
~0.2 s of a daemon's start, so their SHA-256 digests are pinned in
:data:`PINNED_DIGESTS` and a tuple matching a pin skips the battery; the
tier-1 suite runs the full battery on every pinned tuple instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.crypto.group import SchnorrGroup
from repro.crypto.hashing import WITNESS_HASH_BITS, HashSuite

_DEFAULT_P = int(
    "0xbb071d4365d7ef94dd0122a3076dfe4d002924814cfefb33b633d00665a22e94"
    "cd149a95979cf96aeae40b71a7dee8277e1619d9cfa40bc43695be6d1f2031d7"
    "8eea902faa5029d12a48f71032a1690a3c30ae3d070748b7e0b8fea2be2a979b"
    "66ab5a7fdca359b7ee4ab0d31bed08f3d4a7a31d45c508ec16cab73597c999b7",
    16,
)
_DEFAULT_Q = int("0xde84b54815beecc8dd9af117edae0001186a9fa5", 16)
_DEFAULT_G = int(
    "0x54363a25e71aa57375b8d7718db5025d154c2dbacd117db38815cb33c1aa4fba"
    "a53f8572d6ea8281fe70513e38894091ff2291e7dcdb2d0ce0851d213f14906b"
    "95c0284f05d788e0e6880b214e11c3875f8ecb71cd60c6c5103250094e63fc64"
    "1069b0445d68155df6c12355e4eec75151a284abacc472f884b6b7aa158b4a2c",
    16,
)
_DEFAULT_G1 = int(
    "0x25c8543f5a7a50297af48a1983da2903e6c2b73ebb97e6da84b6223e7f8d4cab"
    "edf05a77d52243056ee51b5494ed624fe73d50fdd645f9b022c2e7ee07938fe7"
    "4cb5c0631f0c954505ef83cb288f6ebb3a6e360be3b69eb0a4ed01a80faff383"
    "3bd312bebc7aa788117d49efc3bb9b53dc2c75eabae955d41b1811173c6a057c",
    16,
)
_DEFAULT_G2 = int(
    "0x2f63d8ab0d6c7a22685bb22d3ad66e96d79b3a889a6dc3cdee886bc5b2866e22"
    "4c38d1ec51e7fe9288487b75c57b5ff56feff25f2d8335516b6cec42ee52ce74"
    "a5b6502e1bf6efbf7d51506a4ae385f05519e3a48fcfa76a319c4e30e52e0835"
    "dbc32f8ffac4e17b5fd756756fbaa03ef209b308a5e1d0b6043715bb8630ecef",
    16,
)

_TEST_P = int(
    "0xb433516bcb0ec184be63aa2099a055518cbbae485222a49be59b1e6fda16344b"
    "d1bf964e6571ee746373311e2747ee445f387a3e5d7324e63465143535deb3cf",
    16,
)
_TEST_Q = int("0xbd88ef835831c8b8983c3408c7b1896c2ba3a281", 16)
_TEST_G = int(
    "0x52514bff56137078c27b860b907f37a306b14eccb194ad22b15664005a322966"
    "4db3fa67c23fb19d95091332ac51a6685f7911160933f834ef5c915c02266dfc",
    16,
)
_TEST_G1 = int(
    "0x68610606b9fec0cef16dc613d5750202e75e3dd4442a60db44a8a42519d30f50"
    "0da29dfd4c2394cdf93ede5da76479a78e46d8061b6f46a866a7a564ea9f83d7",
    16,
)
_TEST_G2 = int(
    "0x916d623d3e25bacc296cf2b3aac0cb61f58f6e5c6ff8a19842d50a586b4bbc8c"
    "123ea5f03e656e23fa02ed77b4ccdae2992fd9a1ffdf133fb866cce0d3487966",
    16,
)

#: The embedded ``(p, q, g, g1, g2)`` tuples, by the function serving them.
EMBEDDED_GROUPS: dict[str, tuple[int, int, int, int, int]] = {
    "default_params": (_DEFAULT_P, _DEFAULT_Q, _DEFAULT_G, _DEFAULT_G1, _DEFAULT_G2),
    "test_params": (_TEST_P, _TEST_Q, _TEST_G, _TEST_G1, _TEST_G2),
}

#: :func:`~repro.crypto.group.params_digest` of every embedded tuple. An
#: edit to a constant above no longer matches its pin, and that tuple
#: goes back through :func:`~repro.crypto.group.check_parameters`.
PINNED_DIGESTS = frozenset(
    {
        "17ac9c88fab9e5ce847874eab4912664ae1f3922ee85753d459f0e6f116dc7ca",
        "4b4a509a09f7f48111955915fe72ea4c5ec199de584c5b06c686d59bae3e5e5c",
    }
)


@dataclass(frozen=True)
class SystemParams:
    """Bundle of group, hash suite and witness-hash width.

    Attributes:
        group: the Schnorr group all protocol values live in.
        hashes: the protocol hash functions bound to that group.
        witness_hash_bits: width ``k`` of the witness-selection hash; the
            witness ranges partition ``[0, 2^k)``.
    """

    group: SchnorrGroup
    hashes: HashSuite = field(init=False)
    witness_hash_bits: int = WITNESS_HASH_BITS

    def __post_init__(self) -> None:
        object.__setattr__(self, "hashes", HashSuite(self.group))

    @property
    def witness_hash_space(self) -> int:
        """Size of the witness-selection space, ``2^k``."""
        return 1 << self.witness_hash_bits


def _embedded(name: str) -> SystemParams:
    p, q, g, g1, g2 = EMBEDDED_GROUPS[name]
    group = SchnorrGroup(p=p, q=q, g=g, g1=g1, g2=g2)
    group.validate(pinned=PINNED_DIGESTS)
    return SystemParams(group=group)


@lru_cache(maxsize=None)
def default_params() -> SystemParams:
    """The paper's parameter sizes: 1024-bit ``p``, 160-bit ``q``."""
    return _embedded("default_params")


@lru_cache(maxsize=None)
def test_params() -> SystemParams:
    """A 512-bit group for fast tests; identical code paths, smaller field."""
    return _embedded("test_params")
