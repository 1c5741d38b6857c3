"""Finite products of categories with coordinate-wise functors.

An object has one object per factor, written as (index, factor object) pairs
in factor order, ((0, x0), ..., (k-1, x_{k-1})); `pack` builds it from the
values.  A morphism's payload is the tuple of factor payloads in factor
order.  Hom sets are cartesian products of the factor hom sets in
`itertools.product` order, which is canonical since `canon_bytes` is
self-delimiting; `action` relies on it to sum the factors' action table
indices in mixed radix.  It builds and keeps every factor's table but the
first when it is called, and streams the first factor's rows as the
product's own rows are read, so a caller that reads a few rows builds a few
of the first factor's.  A functor acts coordinate by coordinate.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Any, Iterable, Iterator

from ..core import Category, Functor, Morph


class ProductCategory(Category):
    encoding_version = "2"

    def __init__(self, factors: tuple[Category, ...]):
        if not factors:
            raise ValueError("a product needs at least one factor")
        self.factors = tuple(factors)
        self.name = "x".join(f"({c.name})" for c in self.factors)

    def pack(self, values: tuple) -> Any:
        """The object with one value per factor."""
        if len(values) != len(self.factors):
            raise ValueError("one object per factor required")
        return tuple(enumerate(values))

    def values(self, a: Any) -> tuple:
        return tuple(x for _, x in a)

    def is_object(self, a: Any) -> bool:
        return (isinstance(a, tuple) and len(a) == len(self.factors)
                and all(isinstance(pair, tuple) and len(pair) == 2
                        and isinstance(pair[0], int) and pair[0] == i
                        and cat.is_object(pair[1])
                        for i, (cat, pair) in enumerate(zip(self.factors, a))))

    def iter_objects(self) -> Iterator[Any]:
        streams: list[list[Any]] = [[] for _ in self.factors]
        iters = [c.iter_objects() for c in self.factors]
        total = 0
        while True:
            for stream, it in zip(streams, iters):
                stream.append(next(it))
            for split in _splits(total, len(self.factors)):
                yield self.pack(tuple(stream[i]
                                      for stream, i in zip(streams, split)))
            total += 1

    def component(self, f: Morph, i: int) -> Morph:
        """Factor morphism at coordinate i."""
        return Morph(f.dom[i][1], f.cod[i][1], f.data[i])

    def hom(self, a: Any, b: Any) -> tuple[Morph, ...]:
        parts = [cat.hom(x, y)
                 for cat, (_, x), (_, y) in zip(self.factors, a, b)]
        return tuple(Morph(a, b, tuple(f.data for f in combo))
                     for combo in product(*parts))

    def hom_size(self, a: Any, b: Any) -> int:
        return prod(cat.hom_size(x, y)
                    for cat, (_, x), (_, y) in zip(self.factors, a, b))

    def action(self, a: Any, b: Any, c: Any) -> Iterable[tuple[int, ...]]:
        # the index of a product arrow of hom(a, c) is the sum of its factor
        # indices, each scaled by the size of the later factors' hom(x, z);
        # every factor after the first is built, scaled and kept, since each
        # of its rows is read once per row of the factors before it
        first, *triples = [(cat, x, y, z) for cat, (_, x), (_, y), (_, z)
                           in zip(self.factors, a, b, c)]
        rest, stride = [], 1
        for cat, x, y, z in reversed(triples):
            rest.insert(0, [[stride * j for j in row]
                            for row in cat.action(x, y, z)])
            stride *= cat.hom_size(x, z)
        cat, x, y, z = first
        # called here, so a factor that validates its table does so before
        # any row is read; the first factor's rows are read, and scaled, as
        # the product's rows are
        return (tuple(map(sum, product(head, *rows)))
                for head in ([stride * j for j in row]
                             for row in cat.action(x, y, z))
                for rows in product(*rest))

    def identity(self, a: Any) -> Morph:
        return Morph(a, a, tuple(cat.identity(x).data
                                 for cat, (_, x) in zip(self.factors, a)))

    def compose_data(self, g: Morph, f: Morph) -> Any:
        # component arrows keep their endpoints: a factor may read them
        return tuple(cat.compose_data(self.component(g, i),
                                      self.component(f, i))
                     for i, cat in enumerate(self.factors))

    def spec(self) -> dict:
        return {"kind": "product", "factors": [c.spec() for c in self.factors]}


def _splits(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative tuples of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _splits(total - first, parts - 1):
            yield (first,) + rest


class ProductFunctor(Functor):
    """Apply one functor per coordinate."""

    def __init__(self, parts: tuple[Functor, ...]):
        if not parts:
            raise ValueError("a product functor needs at least one part")
        self.parts = tuple(parts)
        super().__init__(ProductCategory(tuple(p.dom for p in parts)),
                         ProductCategory(tuple(p.cod for p in parts)))
        self.name = "x".join(f"({p.name})" for p in self.parts)

    def obj(self, a: Any) -> Any:
        return tuple((i, p.obj(x)) for p, (i, x) in zip(self.parts, a))

    def morph(self, f: Morph) -> Morph:
        return Morph(self.obj(f.dom), self.obj(f.cod),
                     tuple(p.morph(self.dom.component(f, i)).data
                           for i, p in enumerate(self.parts)))

    def frank_lift(self, a: Any, b_prime: Any) -> Any:
        return tuple((i, p.frank_lift(x, y))
                     for p, (_, x), (i, y) in zip(self.parts, a, b_prime))

    def spec(self) -> dict:
        return {"kind": "product", "factors": [p.spec() for p in self.parts]}


def product_category(*factors: Category) -> ProductCategory:
    return ProductCategory(tuple(factors))


def product_functor(*parts: Functor) -> ProductFunctor:
    return ProductFunctor(tuple(parts))
