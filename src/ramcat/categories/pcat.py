"""Three-block step functions under unit-step surjections.

Objects are pairs (k, tag): tag 2 is a linear order [k] receiving arrows, tags
0 and 1 are sources only (tag 1 requires k >= 2).  An arrow (k,tag) -> (l,2) is
a function [l] -> [k] constant on three consecutive intervals [1,a], [a+1,b-1],
[b,l] with 1 <= a < a+1 < b <= l.  Boundary values depend on the tag and the
chosen orientation:

  tag 0:                x(1) = x(l) = k
  tag 1, "definition":  x(1) = k,   x(l) = k-1
  tag 1, "mirror":      x(1) = k-1, x(l) = k

An arrow (l,2) -> (m,2) is a surjection p: [m] -> [l] with
p(i) <= p(i+1) <= p(i)+1.  All other hom-sets contain at most the identity.
Morphism payloads are value tuples indexed by the *target* order, so
composition is reversed function composition; this keeps every law uniform.

The boundary functor caps values at k-1 on tag-1 sources (sending the object
to (k-1, 0)) and is the identity elsewhere.
"""

from __future__ import annotations

from itertools import combinations, count
from typing import Any, Iterator

from ..core import Category, Functor, LiftError, Morph, binomial

ORIENTATIONS = ("definition", "mirror")


def _step_functions(length: int, left: int, right: int, k: int) -> set[tuple[int, ...]]:
    """Distinct three-block value tuples [length] -> [k] with pinned endpoints."""
    out: set[tuple[int, ...]] = set()
    for a in range(1, length - 1):
        for b in range(a + 2, length + 1):
            for mid in range(1, k + 1):
                vals = [left] * a + [mid] * (b - 1 - a) + [right] * (length - b + 1)
                out.add(tuple(vals))
    return out


class StepCategory(Category):
    encoding_version = "1"

    def __init__(self, orientation: str = "definition"):
        if orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")
        self.orientation = orientation
        self.name = f"step[{orientation}]"

    def is_object(self, a: Any) -> bool:
        if not (isinstance(a, tuple) and len(a) == 2):
            return False
        k, tag = a
        if not (isinstance(k, int) and isinstance(tag, int) and tag in (0, 1, 2)):
            return False
        return k >= (2 if tag == 1 else 1)

    def iter_objects(self) -> Iterator[Any]:
        for k in count(1):
            for tag in (0, 1, 2):
                if self.is_object((k, tag)):
                    yield (k, tag)

    def _endpoints(self, k: int, tag: int) -> tuple[int, int]:
        if tag == 0:
            return k, k
        if self.orientation == "definition":
            return k, k - 1
        return k - 1, k

    def hom(self, a: Any, b: Any) -> tuple[Morph, ...]:
        (k, tag), (l, tag_b) = a, b
        if tag_b != 2:
            return (self.identity(a),) if a == b else ()
        if tag == 2:
            if l < k:
                return ()
            payloads = []
            # p is determined by its k-1 ascent positions inside [l-1]
            for ascents in combinations(range(1, l), k - 1):
                vals, cur = [], 1
                ascent_set = set(ascents)
                for j in range(1, l + 1):
                    vals.append(cur)
                    if j in ascent_set:
                        cur += 1
                payloads.append(tuple(vals))
        else:
            left, right = self._endpoints(k, tag)
            payloads = _step_functions(l, left, right, k)
        # equal-length int payloads: tuple order is canonical order
        return tuple([Morph(a, b, p) for p in sorted(payloads)])

    def hom_size(self, a: Any, b: Any) -> int:
        (k, tag), (l, tag_b) = a, b
        if tag_b != 2:
            return 1 if a == b else 0
        if tag == 2:
            return binomial(l - 1, k - 1) if l >= k else 0
        if l < 3:
            return 0
        # C(l-1, 2) block splits times the middle values unequal to both
        # ends; a middle value equal to an end merges two blocks, leaving the
        # constant function (tag 0) or the l-1 one-switch functions (tag 1)
        if tag == 0:
            return (k - 1) * binomial(l - 1, 2) + 1
        return (k - 2) * binomial(l - 1, 2) + l - 1

    def identity(self, a: Any) -> Morph:
        k = a[0]
        return Morph(a, a, tuple(range(1, k + 1)))

    def compose_data(self, g: Morph, f: Morph) -> Any:
        # payloads point backwards: value j of the composite is f's value at g(j)
        return tuple(f.data[t - 1] for t in g.data)

    def spec(self) -> dict:
        return {"kind": "step", "orientation": self.orientation}


class StepBoundary(Functor):
    """Cap tag-1 values at k-1; identity on everything else."""

    def __init__(self, cat: StepCategory | None = None):
        cat = cat or StepCategory()
        super().__init__(cat, cat)
        self.name = f"step-boundary[{cat.orientation}]"

    def obj(self, a: Any) -> Any:
        k, tag = a
        return (k - 1, 0) if tag == 1 else a

    def morph(self, f: Morph) -> Morph:
        k, tag = f.dom
        if tag != 1:
            return f
        if f.dom == f.cod:  # identity arrow at a tag-1 object
            return self.dom.identity((k - 1, 0))
        capped = tuple(min(v, k - 1) for v in f.data)
        return Morph((k - 1, 0), f.cod, capped)

    def frank_lift(self, a: Any, b_prime: Any) -> Any:
        k, tag = b_prime
        if tag == 2:
            return b_prime
        if tag == 1:
            raise LiftError("no object maps onto a tag-1 object")
        # tag 0: (k+1, 1) covers it when the source demands, else itself
        if a == (k + 1, 1):
            return (k + 1, 1)
        return (k, 0)

    def spec(self) -> dict:
        return {"kind": "step-boundary", "orientation": self.dom.orientation}


def step_category(orientation: str = "definition") -> StepCategory:
    return StepCategory(orientation)


def step_boundary(orientation: str = "definition") -> StepBoundary:
    return StepBoundary(StepCategory(orientation))
