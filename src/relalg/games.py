"""Back-and-forth games measuring first-order quantifier rank.

Two pointed structures are rank-r equivalent when the duplicator survives
r rounds of the classical game: every spoiler move on one side has a
response on the other keeping the chosen pairs a partial isomorphism.
Rank-r equivalence coincides with agreement on all first-order sentences
of quantifier rank at most r, which is what the rest of the package needs
it for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import or_

from .structures import Structure, disjoint_union, random_structure, structure_to_json


class GameError(ValueError):
    pass


# The largest domain either side of a game may have.
_MAX_DOMAIN = 64


def ef_equiv(
    left: Structure,
    left_tuple: tuple = (),
    right: Structure | None = None,
    right_tuple: tuple = (),
    rank: int = 0,
    *,
    max_rank: int = 4,
) -> bool:
    """Whether the pointed structures agree on all sentences of the rank."""
    if right is None:
        raise GameError("two structures are required")
    if left.signature != right.signature:
        raise GameError("structures must share a signature")
    if len(left_tuple) != len(right_tuple):
        raise GameError("pebble tuples must have equal length")
    if max(left.size(), right.size()) > _MAX_DOMAIN:
        raise GameError(f"domain exceeds the game bound of {_MAX_DOMAIN}")
    if not 0 <= rank <= max_rank:
        raise GameError(f"rank must lie in 0..{max_rank}")
    ldom = set(left.domain)
    rdom = set(right.domain)
    if any(e not in ldom for e in left_tuple) or any(
        e not in rdom for e in right_tuple
    ):
        raise GameError("pebbled element not in domain")

    # Elements are mask positions.  A position is its pebbled pairs (a, b)
    # as bits a * n + b, with its answers: for each left element a, the
    # right elements b, as a bit mask, such that (a, b) extends the
    # position's partial isomorphism.
    m, n = left.size(), right.size()
    every = (1 << n) - 1
    letters = []
    for name in left.signature:
        succ = [right.masks[name] >> (d * n) & every for d in range(n)]
        pred = [sum((succ[b] >> d & 1) << b for b in range(n)) for d in range(n)]
        letters.append((left.masks[name], succ, pred))

    def agree(bit: int, mask: int) -> int:
        return mask if bit else every & ~mask

    @cache
    def cut(a0: int, b0: int) -> list[int]:
        """For each a, the b that match a's equality with a0 and R-edges to
        and from a0 by b's with b0, for every relation R."""
        cuts = []
        for a in range(m):
            bits = 1 << b0 if a == a0 else every & ~(1 << b0)
            for mask, succ, pred in letters:
                bits &= agree(mask >> (a * m + a0) & 1, pred[b0])
                bits &= agree(mask >> (a0 * m + a) & 1, succ[b0])
            cuts.append(bits)
        return cuts

    memo: dict[tuple[int, int], bool] = {}

    def answer(held: int, answers: list[int], a: int, b: int, r: int) -> bool:
        bit = 1 << (a * n + b)
        if not held & bit:
            held, answers = held | bit, [x & y for x, y in zip(answers, cut(a, b))]
        return play(held, answers, r)

    def play(held: int, answers: list[int], r: int) -> bool:
        """Whether the duplicator survives r rounds from this position."""
        key = (r, held)
        if key in memo:
            return memo[key]
        # One round is survived exactly when every element has an answer.
        ok = r == 0 or all(answers) and reduce(or_, answers, 0) == every
        if ok and r > 1:
            ok = all(
                any(answer(held, answers, a, b, r - 1) for b in range(n) if answers[a] >> b & 1)
                for a in range(m)
            ) and all(
                any(answer(held, answers, a, b, r - 1) for a in range(m) if answers[a] >> b & 1)
                for b in range(n)
            )
        memo[key] = ok
        return ok

    # At the start, b answers a when they agree on loops: R(a, a) and R(b, b).
    answers = [every] * m
    for mask, succ, _ in letters:
        loops = sum((succ[b] >> b & 1) << b for b in range(n))
        answers = [x & agree(mask >> (a * m + a) & 1, loops) for a, x in enumerate(answers)]
    held = 0
    lpos = {e: i for i, e in enumerate(left.domain)}
    rpos = {e: i for i, e in enumerate(right.domain)}
    for x, y in zip(left_tuple, right_tuple):
        a, b = lpos[x], rpos[y]
        if not answers[a] >> b & 1:
            return False
        held, answers = held | 1 << (a * n + b), [u & v for u, v in zip(answers, cut(a, b))]
    return play(held, answers, rank)


def min_distinguishing_rank(
    left: Structure,
    right: Structure,
    left_tuple: tuple = (),
    right_tuple: tuple = (),
    max_rank: int = 4,
) -> int | None:
    """Least rank at which the two sides disagree, None if none up to the cap."""
    if max_rank < 0:
        raise GameError(f"max rank must be at least 0, got {max_rank}")
    for rank in range(max_rank + 1):
        if not ef_equiv(
            left, left_tuple, right, right_tuple, rank, max_rank=max_rank
        ):
            return rank
    return None


@dataclass
class UnionCompatReport:
    rank: int
    samples: int
    premise_hits: int
    skipped: int
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "game": "first-order rank",
            "rank": self.rank,
            "samples": self.samples,
            "premise_hits": self.premise_hits,
            "skipped": self.skipped,
            "violations": self.violations,
        }


def check_union_compatibility(
    rank: int = 2,
    samples: int = 100,
    size: int = 4,
    seed: int = 0,
    signature: tuple[str, ...] = ("f",),
) -> UnionCompatReport:
    """Sampled check that rank equivalence survives disjoint unions.

    Draws quadruples (A, B, C, D); whenever A matches B and C matches D at
    the rank, the two disjoint unions must match as well.  Quadruples whose
    premise fails are skipped, not counted against the property.  Half the
    partners are shuffled copies of their mates so the premise actually
    fires; the rest are fresh draws that mostly exercise the skip path.
    A negative rank, sample count or seed, or a size below 1, raises `GameError`.
    """
    for name, value, least in (
        ("rank", rank, 0), ("samples", samples, 0), ("size", size, 1), ("seed", seed, 0)
    ):
        if value < least:
            raise GameError(f"{name} must be at least {least}, got {value}")
    rng = random.Random(seed)

    def shuffled_copy(s: Structure) -> Structure:
        names = [f"w{i}" for i in range(len(s.domain))]
        rng.shuffle(names)
        mapping = dict(zip(s.domain, names))
        return Structure(
            sorted(names),
            {
                sym: {(mapping[x], mapping[y]) for x, y in pairs}
                for sym, pairs in s.relations.items()
            },
        )

    def draw() -> Structure:
        sz = rng.randint(1, size)
        return random_structure(rng.randrange(2**31), sz, signature)

    def partner(s: Structure) -> Structure:
        return shuffled_copy(s) if rng.random() < 0.5 else draw()

    premise_hits = 0
    skipped = 0
    violations: list[dict] = []
    for k in range(samples):
        a = draw()
        b = partner(a)
        c = draw()
        d = partner(c)
        draws = [a, b, c, d]
        if ef_equiv(a, (), b, (), rank, max_rank=rank) and ef_equiv(
            c, (), d, (), rank, max_rank=rank
        ):
            premise_hits += 1
            left = disjoint_union(a, c)
            right = disjoint_union(b, d)
            if not ef_equiv(left, (), right, (), rank, max_rank=rank):
                violations.append(
                    {
                        "index": k,
                        "structures": [structure_to_json(s) for s in draws],
                    }
                )
        else:
            skipped += 1
    return UnionCompatReport(rank, samples, premise_hits, skipped, violations)
