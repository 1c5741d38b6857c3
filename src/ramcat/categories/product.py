"""Finite products of categories with coordinate-wise functors.

An object is a tuple of (index, factor object) pairs with strictly increasing
indices; the index set present is the object's support.  Morphisms exist only
between objects with equal support, and a morphism's payload is the tuple of
factor payloads in support order.  Hom sets are cartesian products of the
factor hom sets in `itertools.product` order, which is canonical since
`canon_bytes` is self-delimiting; `action` relies on it to sum the factors'
action table indices in mixed radix.

`iter_objects` enumerates full-support objects only; partially supported
objects are still valid inputs everywhere else.
"""

from __future__ import annotations

from itertools import product
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
        """Full-support object from one value per factor."""
        if len(values) != len(self.factors):
            raise ValueError("one object per factor required")
        return tuple(enumerate(values))

    def values(self, a: Any) -> tuple:
        return tuple(x for _, x in a)

    def support(self, a: Any) -> tuple[int, ...]:
        return tuple(i for i, _ in a)

    def is_object(self, a: Any) -> bool:
        if not isinstance(a, tuple):
            return False
        last = -1
        for pair in a:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                return False
            i, x = pair
            if not (isinstance(i, int) and last < i < len(self.factors)):
                return False
            if not self.factors[i].is_object(x):
                return False
            last = i
        return True

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

    def component(self, f: Morph, pos: int) -> Morph:
        """Factor morphism at the pos-th support coordinate."""
        return Morph(f.dom[pos][1], f.cod[pos][1], f.data[pos])

    def hom(self, a: Any, b: Any) -> tuple[Morph, ...]:
        if self.support(a) != self.support(b):
            return ()
        parts = [self.factors[i].hom(x, y)
                 for (i, x), (_, y) in zip(a, b)]
        return tuple(Morph(a, b, tuple(f.data for f in combo))
                     for combo in product(*parts))

    def hom_size(self, a: Any, b: Any) -> int:
        if self.support(a) != self.support(b):
            return 0
        size = 1
        for (i, x), (_, y) in zip(a, b):
            size *= self.factors[i].hom_size(x, y)
        return size

    def action(self, a: Any, b: Any, c: Any) -> Iterable[tuple[int, ...]]:
        if not self.support(a) == self.support(b) == self.support(c):
            return super().action(a, b, c)
        # the index of a product arrow of hom(a, c) is the sum of its factor
        # indices, each scaled by the size of the later factors' hom(x, z)
        tables, stride = [], 1
        for (i, x), (_, y), (_, z) in reversed(tuple(zip(a, b, c))):
            cat = self.factors[i]
            tables.insert(0, [[stride * j for j in row]
                              for row in cat.action(x, y, z)])
            stride *= cat.hom_size(x, z)
        # rows are summed as they are read, so a caller that stops early
        # never builds the rest
        return (tuple(map(sum, product(*rows))) for rows in product(*tables))

    def identity(self, a: Any) -> Morph:
        return Morph(a, a, tuple(self.factors[i].identity(x).data
                                 for i, x in a))

    def compose_data(self, g: Morph, f: Morph) -> Any:
        # component arrows keep their endpoints: a factor may read them
        return tuple(self.factors[i].compose_data(self.component(g, pos),
                                                  self.component(f, pos))
                     for pos, (i, _) in enumerate(f.dom))

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
    """Apply one functor per coordinate, preserving support."""

    def __init__(self, parts: tuple[Functor, ...]):
        if not parts:
            raise ValueError("a product functor needs at least one part")
        self.parts = tuple(parts)
        super().__init__(ProductCategory(tuple(p.dom for p in parts)),
                         ProductCategory(tuple(p.cod for p in parts)))
        self.name = "x".join(f"({p.name})" for p in self.parts)

    def obj(self, a: Any) -> Any:
        return tuple((i, self.parts[i].obj(x)) for i, x in a)

    def morph(self, f: Morph) -> Morph:
        images = [self.parts[i].morph(self.dom.component(f, pos))
                  for pos, (i, _) in enumerate(f.dom)]
        return Morph(self.obj(f.dom), self.obj(f.cod),
                     tuple(m.data for m in images))

    def frank_lift(self, a: Any, b_prime: Any) -> Any:
        hints = dict(a)
        return tuple((i, self.parts[i].frank_lift(hints.get(i, y), y))
                     for i, y in b_prime)

    def spec(self) -> dict:
        return {"kind": "product", "factors": [p.spec() for p in self.parts]}


def product_category(*factors: Category) -> ProductCategory:
    return ProductCategory(tuple(factors))


def product_functor(*parts: Functor) -> ProductFunctor:
    return ProductFunctor(tuple(parts))
