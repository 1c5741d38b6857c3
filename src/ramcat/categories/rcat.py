"""Finite linear orders with increasing injections, presented by image subsets.

Objects are naturals n >= 0 standing for [n] = {1,...,n}.  A morphism m -> n is
the image of the unique increasing injection, stored as a sorted tuple x of m
elements of [n].  Composition pushes the smaller subset through the increasing
enumeration of the larger one.  The boundary functor drops the top element of
the image and the top point of the target.

`action` composes nothing: g∘f over hom(a, b) in canonical order is
`combinations(y, a)` for g's image y, each an increasing a-subset of [c] and
so an arrow of hom(a, c), ranked by a lookup.  No row can leave hom(a, c), so
none is validated, and the rows are a lazy stream, built as they are read
and readable once.  A subclass that overrides `compose_data` gets the generic
`Category.action`, which composes and validates every row through the
override before it returns them as a list.
"""

from __future__ import annotations

from itertools import combinations, count, repeat
from typing import Any, Iterable, Iterator

from ..core import Category, Functor, Morph, binomial


class SubsetCategory(Category):
    name = "subset"
    encoding_version = "1"

    def is_object(self, a: Any) -> bool:
        return isinstance(a, int) and a >= 0

    def iter_objects(self) -> Iterator[Any]:
        return count(0)

    def hom(self, a: Any, b: Any) -> tuple[Morph, ...]:
        # combinations() is ascending-lex, which is the canonical payload order
        return tuple(Morph(a, b, x) for x in combinations(range(1, b + 1), a))

    def hom_size(self, a: Any, b: Any) -> int:
        return binomial(b, a)

    def identity(self, a: Any) -> Morph:
        return Morph(a, a, tuple(range(1, a + 1)))

    def compose_data(self, g: Morph, f: Morph) -> Any:
        y = g.data  # increasing enumeration of g's image inside [g.cod]
        return tuple(y[i - 1] for i in f.data)

    def action(self, a: Any, b: Any, c: Any) -> Iterable[tuple[int, ...]]:
        if type(self).compose_data is not SubsetCategory.compose_data:
            return super().action(a, b, c)
        rank = {x: i for i, x in
                enumerate(combinations(range(1, c + 1), a))}.__getitem__
        # tuple(map(rank, combinations(y, a))) per image y, streamed
        return map(tuple, map(map, repeat(rank), map(
            combinations, combinations(range(1, c + 1), b), repeat(a))))

    def moves(self, a: Any, c: Any
              ) -> tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]:
        """The cyclic shift x -> x+1 mod c and, when c is a power of two, the
        translations of GF(2)^k (labels 1..c read as 0..c-1), each lifted to
        a permutation of the a-subsets of [c]."""
        subsets = list(combinations(range(1, c + 1), a))
        rank = {x: i for i, x in enumerate(subsets)}

        def lift(point):
            return tuple(rank[tuple(sorted(map(point, x)))] for x in subsets)

        groups = [("shift", (lift(lambda x: x % c + 1),))]
        if c > 1 and c & (c - 1) == 0:
            groups.append(("xor", tuple(
                lift(lambda x, bit=1 << k: ((x - 1) ^ bit) + 1)
                for k in range(c.bit_length() - 1))))
        return tuple(groups)

    def spec(self) -> dict:
        return {"kind": "subset"}


class SubsetBoundary(Functor):
    """Drop the maximum of the image and shrink the target by one."""

    name = "subset-boundary"

    def __init__(self, cat: SubsetCategory | None = None):
        cat = cat or SubsetCategory()
        super().__init__(cat, cat)

    def obj(self, a: Any) -> Any:
        return max(a - 1, 0)

    def morph(self, f: Morph) -> Morph:
        data = f.data[:-1] if f.data else ()
        return Morph(self.obj(f.dom), self.obj(f.cod), data)

    def frank_lift(self, a: Any, b_prime: Any) -> Any:
        # hom(a, n+1) maps onto hom(a-1, n) by dropping the forced top point
        return b_prime + 1

    def spec(self) -> dict:
        return {"kind": "subset-boundary"}


def subset_category() -> SubsetCategory:
    return SubsetCategory()


def subset_boundary(cat: SubsetCategory | None = None) -> SubsetBoundary:
    return SubsetBoundary(cat)
