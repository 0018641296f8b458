"""Subgroup membership and commitment-recovery certification.

:func:`is_subgroup_member` is the memoized order-``q`` membership test
every signature verification runs on its key.

The rest certifies the *hash-challenge* signature families (Schnorr
transcripts, Abe-Okamoto coins) in bulk. Those checks cannot be collapsed
into one equation — the verifier must recover each commitment ``R_i``
individually to recompute ``H(R_i || ...)`` — but the recoveries
themselves are fast-path arithmetic (fixed-base tables, a foreign
bigint backend), and a :class:`CommitmentClaim` records each one
as a checkable statement ``R_i == prod_j base_j^{e_j}``. A
:class:`ClaimSet` then certifies *all* recoveries of a bulk operation
with a single random linear combination (:func:`certify_claims`, after
Bellare-Garay-Rabin), and on failure binary-splits down to the faulty
claims (:func:`false_claims`), judges each on builtin ``pow``
(:func:`_claim_holds`, the independent referee) and asks the caller's
recheck about only the implicated items. Certification runs outside the
Table 1 accounting — it audits the machinery, not the protocol.

No protocol step builds a :class:`ClaimSet` today: ``bench/layers.py``
times one (``perf.claimset_us_per_item``) and the tests drive it; see
ROADMAP item 4(b).
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.crypto import backend
from repro.perf import cache as perf_cache
from repro.perf.multiexp import multi_exp

#: Bit length of the random batch exponents ``t_i`` (failure escape
#: probability is at most ``2^-BATCH_SECURITY_BITS`` per batch).
BATCH_SECURITY_BITS = 64


def is_subgroup_member(p: int, q: int, element: int) -> bool:
    """Memoized order-``q`` subgroup membership test for ``element``.

    Signature verification runs it on the key, and keys recur across
    thousands of signatures, so the full-size exponentiation is cached
    per ``(p, element)``.
    """
    if not 1 <= element < p:
        return False
    return perf_cache.memoized(
        "subgroup-member",
        ("member", p, element),
        lambda: backend.powmod(element, q, p) == 1,
    )


# ----------------------------------------------------------------------
# Commitment-recovery claims (batched hash-challenge verification)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CommitmentClaim:
    """One fast-path arithmetic claim ``commitment == prod_j base_j^{e_j}``.

    Hash-challenge verifiers (Schnorr, Abe-Okamoto) recover a commitment
    ``R = g^s * X^{-e}`` on the fast path and feed it into an exact hash
    comparison. The hash check certifies the *signature*; the claim
    certifies the *recovery arithmetic* — that the fixed-base tables and
    the bigint backend produced the same ``R`` the naive
    square-and-multiply would have. Claims are only ever built from
    internally computed subgroup elements, so no membership checks are
    needed before combining them.
    """

    commitment: int
    pairs: tuple[tuple[int, int], ...]


def _claim_holds(p: int, q: int, claim: CommitmentClaim) -> bool:
    """Recompute one claim with builtin ``pow`` — the definitive leaf check.

    Deliberately bypasses both the perf engine and the bigint backend:
    this is the independent referee for the machinery under audit.
    """
    out = 1
    for base, exponent in claim.pairs:
        out = out * pow(base % p, exponent % q, p) % p
    return out == claim.commitment % p


def certify_claims(
    p: int,
    q: int,
    claims: Sequence[CommitmentClaim],
    rng: random.Random | None = None,
) -> bool:
    """Check every claim at once via a random linear combination.

    Each claim is scaled by a fresh odd ``BATCH_SECURITY_BITS``-bit
    exponent ``t_i`` and the products are merged per *base*: the shared
    bases (generators, public keys) collapse to one accumulated exponent
    each, so ``n`` claims over ``k`` distinct bases cost one
    :func:`~repro.perf.multiexp.multi_exp` over at most ``k + n`` pairs
    instead of ``n`` separate recomputations.

    Returns:
        ``True`` iff the combination holds — all claims are genuine
        except with probability at most ``2^-BATCH_SECURITY_BITS``.
    """
    if not claims:
        return True
    acc: dict[int, int] = {}
    for claim in claims:
        if rng is None:
            t = secrets.randbits(BATCH_SECURITY_BITS) | 1
        else:
            t = rng.getrandbits(BATCH_SECURITY_BITS) | 1
        for base, exponent in claim.pairs:
            b = base % p
            acc[b] = (acc.get(b, 0) + t * exponent) % q
        c = claim.commitment % p
        acc[c] = (acc.get(c, 0) - t) % q
    pairs = [(base, exponent) for base, exponent in acc.items() if exponent]
    if not pairs:
        return True
    return multi_exp(p, q, pairs) == 1


def false_claims(
    p: int,
    q: int,
    claims: Sequence[CommitmentClaim],
    rng: random.Random | None = None,
) -> list[int]:
    """Pinpoint failing claims by binary split; returns their indices.

    Called after :func:`certify_claims` reported a failure. Halves that
    re-certify clean are accepted wholesale; failing halves are split
    until single claims remain, which are judged by the naive
    builtin-``pow`` recompute — so every returned index is *definitively*
    false, not probabilistically suspected.
    """
    bad: list[int] = []

    def split(indices: list[int]) -> None:
        if len(indices) == 1:
            if not _claim_holds(p, q, claims[indices[0]]):
                bad.append(indices[0])
            return
        mid = len(indices) // 2
        for half in (indices[:mid], indices[mid:]):
            if not certify_claims(p, q, [claims[i] for i in half], rng):
                split(half)

    if claims:
        split(list(range(len(claims))))
    return bad


class ClaimSet:
    """Claims from one bulk operation, grouped by the item that made them.

    Verification paths register the claims behind each item's fast-path
    result together with an opaque ``token`` and a ``recheck`` callback
    — the caller's independent re-verification of that item.
    :meth:`certify` then audits the whole set in one combined equation
    and, only on failure, narrows down to the implicated items and asks
    their rechecks.
    """

    def __init__(self) -> None:
        self._claims: list[CommitmentClaim] = []
        self._owners: list[int] = []
        self._entries: list[tuple[object, Callable[[], bool]]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def add(
        self,
        token: object,
        claims: Sequence[CommitmentClaim],
        recheck: Callable[[], bool],
    ) -> None:
        """Register one item's claims and its recheck callback."""
        entry = len(self._entries)
        self._entries.append((token, recheck))
        for claim in claims:
            self._claims.append(claim)
            self._owners.append(entry)

    def certify(
        self,
        p: int,
        q: int,
        rng: random.Random | None = None,
    ) -> list[object]:
        """Audit every registered claim; return tokens proven *invalid*.

        The entire audit — combination, splitting, rechecks — runs with
        operation counting suppressed: it is machinery
        self-verification, not protocol work, so the Table 1 accounting
        must not see it. A token is returned only when its item's
        recheck fails; items whose fast path glitched but whose
        underlying data is valid are *not* reported. If the
        split implicates nothing despite the combined failure (a
        ``2^-BATCH_SECURITY_BITS`` fluke), every entry is recheck-judged
        as a safety net.
        """
        # Call-time import: counters lives a layer above (see the package
        # layering note).
        from repro.crypto import counters

        if not self._claims:
            return []
        bad: list[object] = []
        with counters.suppressed():
            if certify_claims(p, q, self._claims, rng):
                return []
            suspects = {self._owners[i] for i in false_claims(p, q, self._claims, rng)}
            if not suspects:
                suspects = set(range(len(self._entries)))
            for entry in sorted(suspects):
                token, recheck = self._entries[entry]
                if not recheck():
                    bad.append(token)
        return bad


__all__ = [
    "BATCH_SECURITY_BITS",
    "ClaimSet",
    "CommitmentClaim",
    "certify_claims",
    "false_claims",
    "is_subgroup_member",
]
