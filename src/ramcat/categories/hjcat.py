"""Words over a fixed window [-k0, 0] with substitution morphisms.

Fix k0 >= 0.  Objects are dimensions l >= 0 ("L" objects) and surjections
v: [-k0, 0] -> [k] for some k >= 1 ("V" objects, stored as the value tuple at
positions -k0..0).  Morphisms:

  v -> l   ("F"): any function [l] -> im(v), stored as its value tuple;
  l1 -> l2 ("G"): any g: [l2] -> [-k0, l1] with image covering [l1];
  v -> v   : the identity only.

Composition substitutes through the window: (g.f)(j) = v(g(j)) if g(j) <= 0
else f(g(j)), and (g2.g1)(j) = g2(j) if g2(j) <= 0 else g1(g2(j)).

The boundary functor caps letters at max(im v) - 1 (floored at 1) on V objects
and on their outgoing arrows; dimensions and substitutions are fixed.
"""

from __future__ import annotations

from itertools import count, product
from math import comb
from typing import Any, Iterator

from ..core import Category, Functor, LiftError, Morph

_IDV = ("idv",)


def _cap(k: int) -> int:
    return max(k - 1, 1)


class WordCategory(Category):
    encoding_version = "1"

    def __init__(self, k0: int):
        if k0 < 0:
            raise ValueError("window size k0 must be >= 0")
        self.k0 = k0
        self.name = f"word[{k0}]"

    # objects are ("L", l) or ("V", values) with values a (k0+1)-tuple
    def is_object(self, a: Any) -> bool:
        if not (isinstance(a, tuple) and len(a) == 2):
            return False
        kind, val = a
        if kind == "L":
            return isinstance(val, int) and val >= 0
        if kind == "V":
            if not (isinstance(val, tuple) and len(val) == self.k0 + 1):
                return False
            if not all(isinstance(x, int) and x >= 1 for x in val):
                return False
            return set(val) == set(range(1, max(val) + 1))
        return False

    def v_objects(self) -> tuple[Any, ...]:
        """All surjection objects, by image size then value tuple."""
        out = []
        for k in range(1, self.k0 + 2):
            for vals in product(range(1, k + 1), repeat=self.k0 + 1):
                if set(vals) == set(range(1, k + 1)):
                    out.append(("V", vals))
        return tuple(out)

    def iter_objects(self) -> Iterator[Any]:
        yield from self.v_objects()
        for l in count(0):
            yield ("L", l)

    def image(self, v_obj: Any) -> int:
        return max(v_obj[1])

    def window_value(self, v_obj: Any, pos: int) -> int:
        """Value of the surjection at window position pos in [-k0, 0]."""
        return v_obj[1][pos + self.k0]

    def letter_position(self, v_obj: Any, letter: int) -> int:
        """Smallest window position carrying the given letter."""
        for pos in range(-self.k0, 1):
            if self.window_value(v_obj, pos) == letter:
                return pos
        raise ValueError(f"letter {letter} not in the image of {v_obj!r}")

    def hom(self, a: Any, b: Any) -> tuple[Morph, ...]:
        ka, kb = a[0], b[0]
        if ka == "V" and kb == "V":
            return (self.identity(a),) if a == b else ()
        if ka == "L" and kb == "V":
            return ()
        # product() is ascending-lex: under one tag, the canonical order
        if ka == "V" and kb == "L":
            k, l = self.image(a), b[1]
            return tuple([Morph(a, b, ("F", vals))
                          for vals in product(range(1, k + 1), repeat=l)])
        l1, l2 = a[1], b[1]
        required = set(range(1, l1 + 1))
        return tuple([Morph(a, b, ("G", vals))
                      for vals in product(range(-self.k0, l1 + 1), repeat=l2)
                      if required <= set(vals)])

    def hom_size(self, a: Any, b: Any) -> int:
        ka, kb = a[0], b[0]
        if ka == "V" and kb == "L":
            return self.image(a) ** b[1]
        if ka == "L" and kb == "L":
            # inclusion-exclusion over which of [l1] are missed
            l1, l2 = a[1], b[1]
            total = 0
            for miss in range(l1 + 1):
                total += (-1) ** miss * comb(l1, miss) * \
                    (self.k0 + 1 + l1 - miss) ** l2
            return total
        return int(a == b)  # into a V object: only its identity

    def identity(self, a: Any) -> Morph:
        if a[0] == "V":
            return Morph(a, a, _IDV)
        l = a[1]
        return Morph(a, a, ("G", tuple(range(1, l + 1))))

    def compose_data(self, g: Morph, f: Morph) -> Any:
        if f.data == _IDV:
            return g.data
        if g.data == _IDV:
            return f.data
        ftag, fvals = f.data
        gtag, gvals = g.data
        if ftag == "F":  # v -> l1 then l1 -> l2
            v = f.dom
            return ("F", tuple(self.window_value(v, t) if t <= 0
                               else fvals[t - 1] for t in gvals))
        return ("G", tuple(t if t <= 0 else fvals[t - 1] for t in gvals))

    def spec(self) -> dict:
        return {"kind": "word", "k0": self.k0}


class WordBoundary(Functor):
    """Cap letters strictly below the current alphabet maximum (floored at 1)."""

    def __init__(self, cat: WordCategory):
        super().__init__(cat, cat)
        self.name = f"word-boundary[{cat.k0}]"

    def obj(self, a: Any) -> Any:
        if a[0] == "L":
            return a
        cap = _cap(max(a[1]))
        return ("V", tuple(min(x, cap) for x in a[1]))

    def morph(self, f: Morph) -> Morph:
        if f.dom[0] == "L":
            return f
        if f.data == _IDV:
            return self.dom.identity(self.obj(f.dom))
        cap = _cap(self.dom.image(f.dom))
        tag, vals = f.data
        return Morph(self.obj(f.dom), f.cod, (tag, tuple(min(x, cap) for x in vals)))

    def frank_lift(self, a: Any, b_prime: Any) -> Any:
        if b_prime[0] == "L":
            return b_prime
        if a[0] == "V" and self.obj(a) == b_prime:
            return a
        for cand in self.dom.v_objects():
            if self.obj(cand) == b_prime:
                return cand
        raise LiftError(f"{b_prime!r} is outside the object image")

    def spec(self) -> dict:
        return {"kind": "word-boundary", "k0": self.dom.k0}


def word_category(k0: int) -> WordCategory:
    return WordCategory(k0)


def word_boundary(k0: int) -> WordBoundary:
    return WordBoundary(WordCategory(k0))


def standard_window(k0: int) -> Any:
    """The order bijection [-k0,0] -> [k0+1] as a V object."""
    return ("V", tuple(range(1, k0 + 2)))
