"""Small-exponent linear-combination batch verification.

The deposit pipeline's per-item hot spot is the representation check

    ``A_i * B_i^{d_i} == g1^{r1_i} * g2^{r2_i}``

(three full exponentiations per transcript). Following Bellare-Garay-Rabin
style batch verification, ``n`` checks collapse into one equation with
fresh small random exponents ``t_i``::

    prod_i A_i^{t_i} * B_i^{t_i d_i}  ==  g1^{sum t_i r1_i} * g2^{sum t_i r2_i}

evaluated as a single :func:`~repro.perf.multiexp.multi_exp` over
``2n + 2`` bases — one shared squaring chain for the whole batch, with the
``g1``/``g2`` side served from fixed-base tables. A cheater that fails its
individual equation passes the combination with probability at most
``2^-BATCH_SECURITY_BITS`` (given subgroup membership, which is checked —
and memoized — per element, since wire-supplied ``A``/``B`` values are
otherwise free to carry small-order components that random combinations
can miss).

On batch failure the caller falls back to per-item verification to name
the culprit; see :meth:`repro.core.merchant.Merchant.verify_payment_bulk`.
(The broker's deposit path verifies per item: it sees each coin
once, so the two membership exponentiations this check needs per coin
cost more than the one exponentiation it saves.)

Beyond the representation equations, this module also certifies the
*hash-challenge* signature families (Schnorr transcripts, Abe-Okamoto
coins) in bulk. Those checks cannot be collapsed into one equation the
way representation checks can — the verifier must recover each
commitment ``R_i`` individually to recompute ``H(R_i || ...)`` — but the
recoveries themselves are fast-path arithmetic (comb tables, Straus
chains, an optional GMP backend), and a :class:`CommitmentClaim` records
each one as a checkable statement ``R_i == prod_j base_j^{e_j}``. A
:class:`ClaimSet` then certifies *all* recoveries of a bulk operation
with a single random linear combination (:func:`certify_claims`), and on
failure binary-splits down to the faulty claims (:func:`false_claims`)
and re-verifies only the implicated items on the naive builtin-``pow``
path. Certification runs outside the Table 1 accounting — it audits the
machinery, not the protocol.
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


@dataclass(frozen=True)
class RepresentationCheck:
    """One deferred representation equation ``A * B^d == g1^r1 * g2^r2``."""

    commitment_a: int
    commitment_b: int
    challenge: int
    r1: int
    r2: int


def is_subgroup_member(p: int, q: int, element: int) -> bool:
    """Memoized order-``q`` subgroup membership test for ``element``.

    Commitments recur across re-deposits and double-spend evidence, so the
    full-size exponentiation is cached per ``(p, element)``.
    """
    if not 1 <= element < p:
        return False
    return perf_cache.memoized(
        "subgroup-member",
        ("member", p, element),
        lambda: backend.powmod(element, q, p) == 1,
    )


def verify_batch(
    p: int,
    q: int,
    g1: int,
    g2: int,
    checks: Sequence[RepresentationCheck],
    rng: random.Random | None = None,
) -> bool:
    """Verify every representation equation in one combined multi-exp.

    Args:
        p, q: the group's field prime and subgroup order.
        g1, g2: the representation bases.
        checks: the deferred equations.
        rng: optional deterministic randomness for the batch exponents
            (tests/simulations); cryptographically secure when omitted.

    Returns:
        ``True`` iff the random linear combination holds — which, for
        subgroup-member commitments, implies every individual equation
        holds except with negligible probability. ``False`` means *at
        least one* item is bad; the caller identifies it per-item.
    """
    if not checks:
        return True
    pairs: list[tuple[int, int]] = []
    sum_r1 = 0
    sum_r2 = 0
    for check in checks:
        if not is_subgroup_member(p, q, check.commitment_a):
            return False
        if not is_subgroup_member(p, q, check.commitment_b):
            return False
        if rng is None:
            t = secrets.randbits(BATCH_SECURITY_BITS) | 1
        else:
            t = rng.getrandbits(BATCH_SECURITY_BITS) | 1
        pairs.append((check.commitment_a, t))
        pairs.append((check.commitment_b, t * check.challenge % q))
        sum_r1 = (sum_r1 + t * check.r1) % q
        sum_r2 = (sum_r2 + t * check.r2) % q
    # Move the right-hand side over: g1^{-sum r} == g1^{q - sum r}.
    pairs.append((g1, (q - sum_r1) % q))
    pairs.append((g2, (q - sum_r2) % q))
    return multi_exp(p, q, pairs) == 1


# ----------------------------------------------------------------------
# Commitment-recovery claims (batched hash-challenge verification)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CommitmentClaim:
    """One fast-path arithmetic claim ``commitment == prod_j base_j^{e_j}``.

    Hash-challenge verifiers (Schnorr, Abe-Okamoto) recover a commitment
    ``R = g^s * X^{-e}`` on the fast path and feed it into an exact hash
    comparison. The hash check certifies the *signature*; the claim
    certifies the *recovery arithmetic* — that the comb tables, Straus
    chains and bigint backend produced the same ``R`` the naive
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
    result together with an opaque ``token`` (typically ``(index,
    stage)``) and a ``recheck`` callback that re-runs the item's full
    verification on the naive path — and repairs any memo-cache entry the
    faulty fast path may have poisoned. :meth:`certify` then audits the
    whole set in one combined equation and, only on failure, narrows down
    to and naively re-judges the implicated items.
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
        """Register one item's claims and its naive recheck callback."""
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
        operation counting suppressed and the perf engine disabled for
        the rechecks: it is machinery self-verification, not protocol
        work, so the Table 1 accounting must not see it. A token is
        returned only when its item's naive recheck fails; items whose
        fast path glitched but whose underlying data is valid are
        silently repaired by their recheck and *not* reported. If the
        split implicates nothing despite the combined failure (a
        ``2^-BATCH_SECURITY_BITS`` fluke), every entry is recheck-judged
        as a safety net.
        """
        # Call-time imports: repro.perf's __init__ imports this module,
        # and counters lives a layer above (see the package layering note).
        from repro import perf
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
            with perf.disabled():
                for entry in sorted(suspects):
                    token, recheck = self._entries[entry]
                    if not recheck():
                        bad.append(token)
        return bad


__all__ = [
    "BATCH_SECURITY_BITS",
    "ClaimSet",
    "CommitmentClaim",
    "RepresentationCheck",
    "certify_claims",
    "false_claims",
    "is_subgroup_member",
    "verify_batch",
]
