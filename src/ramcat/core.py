"""Finite categories with canonical byte encodings, plus functor law checks.

Objects and morphism payloads are immutable trees of ints, strings and tuples.
Every value has a canonical byte encoding (`canon_bytes`); equality of encoded
bytes is equality of values, and hom-sets are enumerated in lexicographic order
of the encoded payload.  Fixed-width order-preserving integer encoding makes
byte order agree with numeric order componentwise.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, Iterator, Sequence

_INT_OFFSET = 1 << 63  # shift signed values so byte order matches numeric order


class EncodingError(ValueError):
    pass


class LiftError(ValueError):
    """No object satisfies the surjectivity lift at this target."""


def canon_bytes(value: Any) -> bytes:
    """Canonical injective encoding of nested ints/strs/tuples."""
    if isinstance(value, bool):
        raise EncodingError("booleans are not encodable payload values")
    if isinstance(value, int):
        shifted = value + _INT_OFFSET
        if not 0 <= shifted < (1 << 64):
            raise EncodingError(f"integer out of encodable range: {value}")
        return b"I" + shifted.to_bytes(8, "big")
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + len(raw).to_bytes(4, "big") + raw
    if isinstance(value, tuple):
        parts = [canon_bytes(item) for item in value]
        return b"T" + len(parts).to_bytes(4, "big") + b"".join(parts)
    raise EncodingError(f"unencodable value of type {type(value).__name__}")


def canon_hex(value: Any) -> str:
    return canon_bytes(value).hex()


def canon_parse(raw: bytes) -> Any:
    """Inverse of canon_bytes; rejects malformed input and trailing bytes."""
    value, end = _parse_at(raw, 0)
    if end != len(raw):
        raise EncodingError(f"trailing bytes at offset {end}")
    return value


def canon_unhex(text: str) -> Any:
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise EncodingError(f"not base-16: {exc}") from exc
    return canon_parse(raw)


def _parse_at(raw: bytes, at: int) -> tuple[Any, int]:
    if at >= len(raw):
        raise EncodingError(f"truncated encoding at offset {at}")
    tag = raw[at:at + 1]
    if tag == b"I":
        end = at + 9
        if len(raw) < end:
            raise EncodingError(f"truncated integer at offset {at}")
        return int.from_bytes(raw[at + 1:end], "big") - _INT_OFFSET, end
    if tag == b"S":
        header = at + 5
        if len(raw) < header:
            raise EncodingError(f"truncated string header at offset {at}")
        size = int.from_bytes(raw[at + 1:header], "big")
        end = header + size
        if len(raw) < end:
            raise EncodingError(f"truncated string at offset {at}")
        try:
            return raw[header:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise EncodingError(f"bad utf-8 at offset {header}: {exc}") from exc
    if tag == b"T":
        header = at + 5
        if len(raw) < header:
            raise EncodingError(f"truncated tuple header at offset {at}")
        size = int.from_bytes(raw[at + 1:header], "big")
        items = []
        cursor = header
        for _ in range(size):
            item, cursor = _parse_at(raw, cursor)
            items.append(item)
        return tuple(items), cursor
    raise EncodingError(f"unknown tag {tag!r} at offset {at}")


@dataclass(frozen=True)
class Morph:
    """A morphism with explicit domain and codomain object codes."""

    dom: Any
    cod: Any
    data: Any

    def key(self) -> bytes:
        return canon_bytes(self.data)

    def encode(self) -> bytes:
        return canon_bytes((self.dom, self.cod, self.data))


def sort_morphs(morphs: Iterable[Morph]) -> tuple[Morph, ...]:
    return tuple(sorted(morphs, key=Morph.key))


class Category(ABC):
    """Finite-hom category handle.

    `hom` returns the full hom-set in canonical order; `hom_size` may count it
    without building it.  `compose(g, f)` is "f then g".  `action(a, b, c)`
    yields one row per g in hom(b, c): the hom(a, c) indices of g∘f over
    hom(a, b); products override it with mixed-radix index sums.
    """

    name: str = "category"
    encoding_version: str = "1"

    @abstractmethod
    def is_object(self, a: Any) -> bool: ...

    @abstractmethod
    def iter_objects(self) -> Iterator[Any]:
        """Deterministic enumeration of objects (possibly infinite)."""

    @abstractmethod
    def hom(self, a: Any, b: Any) -> tuple[Morph, ...]: ...

    @abstractmethod
    def identity(self, a: Any) -> Morph: ...

    @abstractmethod
    def compose(self, g: Morph, f: Morph) -> Morph: ...

    def hom_size(self, a: Any, b: Any) -> int:
        return len(self.hom(a, b))

    def action(self, a: Any, b: Any, c: Any) -> Iterator[tuple[int, ...]]:
        hom_ab = self.hom(a, b)
        pos = {f: i for i, f in enumerate(self.hom(a, c))}
        compose = self.compose
        for g in self.hom(b, c):
            try:
                row = tuple(pos[compose(g, f)] for f in hom_ab)
            except KeyError:
                f = next(f for f in hom_ab if compose(g, f) not in pos)
                raise ValueError(f"{self.name}: compose(g, f) is not in "
                                 f"hom({a!r}, {c!r}) for g={g!r}, "
                                 f"f={f!r}") from None
            yield row

    def objects(self, count: int) -> tuple[Any, ...]:
        return tuple(islice(self.iter_objects(), count))

    def spec(self) -> dict:
        """JSON-serializable constructor description (for certificates)."""
        raise NotImplementedError(f"{self.name} has no registry spec")


class Functor(ABC):
    name: str = "functor"
    encoding_version: str = "1"

    def __init__(self, dom: Category, cod: Category):
        self.dom = dom
        self.cod = cod

    @abstractmethod
    def obj(self, a: Any) -> Any: ...

    @abstractmethod
    def morph(self, f: Morph) -> Morph: ...

    def frank_lift(self, a: Any, b_prime: Any) -> Any:
        """Object b with obj(b) == b_prime and morph(hom(a,b)) == hom(obj a, b_prime)."""
        raise LiftError(f"{self.name} has no lift oracle")

    def spec(self) -> dict:
        raise NotImplementedError(f"{self.name} has no registry spec")


class IdentityFunctor(Functor):
    def __init__(self, cat: Category):
        super().__init__(cat, cat)
        self.name = f"id[{cat.name}]"

    def obj(self, a: Any) -> Any:
        return a

    def morph(self, f: Morph) -> Morph:
        return f

    def frank_lift(self, a: Any, b_prime: Any) -> Any:
        return b_prime

    def spec(self) -> dict:
        return {"kind": "identity", "category": self.dom.spec()}


class ComposedFunctor(Functor):
    """outer after inner; lift chains the factors' lifts."""

    def __init__(self, outer: Functor, inner: Functor):
        if inner.cod is not outer.dom and inner.cod.name != outer.dom.name:
            raise ValueError("functors not composable")
        super().__init__(inner.dom, outer.cod)
        self.outer = outer
        self.inner = inner
        self.name = f"{outer.name}.{inner.name}"

    def obj(self, a: Any) -> Any:
        return self.outer.obj(self.inner.obj(a))

    def morph(self, f: Morph) -> Morph:
        return self.outer.morph(self.inner.morph(f))

    def frank_lift(self, a: Any, b_prime: Any) -> Any:
        mid = self.outer.frank_lift(self.inner.obj(a), b_prime)
        return self.inner.frank_lift(a, mid)

    def spec(self) -> dict:
        return {"kind": "compose", "outer": self.outer.spec(), "inner": self.inner.spec()}


def compose_functors(outer: Functor, inner: Functor) -> Functor:
    return ComposedFunctor(outer, inner)


def compose_word(word: Sequence[Functor]) -> Functor:
    """Composite of a word [f1, f2, ..., fn] meaning fn∘...∘f1 (f1 applied first)."""
    if not word:
        raise ValueError("empty word has no domain; use IdentityFunctor")
    acc = word[0]
    for nxt in word[1:]:
        acc = ComposedFunctor(nxt, acc)
    return acc


@dataclass(frozen=True)
class LawReport:
    ok: bool
    checked: int
    violations: tuple[str, ...]


def check_category_laws(cat: Category, objects: Sequence[Any],
                        max_hom: int = 20000) -> LawReport:
    """Identity, associativity and closure over the given object fragment."""
    violations: list[str] = []
    checked = 0
    homs: dict[tuple[Any, Any], tuple[Morph, ...]] = {}

    def get_hom(a: Any, b: Any) -> tuple[Morph, ...]:
        key = (a, b)
        if key not in homs:
            hs = cat.hom(a, b)
            if len(hs) > max_hom:
                raise ValueError(f"hom fragment too large: {len(hs)}")
            homs[key] = hs
        return homs[key]

    for a in objects:
        ida = cat.identity(a)
        if ida.dom != a or ida.cod != a:
            violations.append(f"identity at {a!r} has wrong endpoints")
        for b in objects:
            for f in get_hom(a, b):
                checked += 1
                if f.dom != a or f.cod != b:
                    violations.append(f"hom({a!r},{b!r}) contains stray {f!r}")
                if cat.compose(f, ida) != f:
                    violations.append(f"f∘id != f for {f!r}")
                if cat.compose(cat.identity(b), f) != f:
                    violations.append(f"id∘f != f for {f!r}")

    for a in objects:
        for b in objects:
            hab = get_hom(a, b)
            if not hab:
                continue
            for c in objects:
                hbc = get_hom(b, c)
                if not hbc:
                    continue
                # closure: composites land in the enumerated hom-set
                hac = set(get_hom(a, c))
                for f in hab:
                    for g in hbc:
                        gf = cat.compose(g, f)
                        checked += 1
                        if gf not in hac:
                            violations.append(
                                f"compose({g!r},{f!r}) not in hom({a!r},{c!r})")
                for d in objects:
                    hcd = get_hom(c, d)
                    if not hcd:
                        continue
                    for f in hab:
                        for g in hbc:
                            for h in hcd:
                                checked += 1
                                lhs = cat.compose(h, cat.compose(g, f))
                                rhs = cat.compose(cat.compose(h, g), f)
                                if lhs != rhs:
                                    violations.append(
                                        f"associativity fails at ({h!r},{g!r},{f!r})")
    return LawReport(not violations, checked, tuple(violations[:20]))


def check_functor_laws(fun: Functor, objects: Sequence[Any],
                       max_hom: int = 20000) -> LawReport:
    violations: list[str] = []
    checked = 0
    dom_homs: dict[tuple[Any, Any], tuple[Morph, ...]] = {}
    cod_homs: dict[tuple[Any, Any], set[Morph]] = {}

    def dom_hom(a: Any, b: Any) -> tuple[Morph, ...]:
        key = (a, b)
        if key not in dom_homs:
            hs = fun.dom.hom(a, b)
            if len(hs) > max_hom:
                raise ValueError("hom fragment too large")
            dom_homs[key] = hs
        return dom_homs[key]

    def cod_hom(a: Any, b: Any) -> set[Morph]:
        key = (a, b)
        if key not in cod_homs:
            cod_homs[key] = set(fun.cod.hom(a, b))
        return cod_homs[key]

    for a in objects:
        fa = fun.obj(a)
        if not fun.cod.is_object(fa):
            violations.append(f"obj({a!r}) = {fa!r} is not a codomain object")
            continue
        ida = fun.morph(fun.dom.identity(a))
        if ida != fun.cod.identity(fa):
            violations.append(f"identity at {a!r} not preserved")
        for b in objects:
            hab = dom_hom(a, b)
            if not hab:
                continue
            target = cod_hom(fa, fun.obj(b))
            for f in hab:
                checked += 1
                ff = fun.morph(f)
                if ff not in target:
                    violations.append(f"morph({f!r}) outside hom of images")
            for c in objects:
                hbc = dom_hom(b, c)
                if not hbc:
                    continue
                for f in hab:
                    for g in hbc:
                        checked += 1
                        lhs = fun.morph(fun.dom.compose(g, f))
                        rhs = fun.cod.compose(fun.morph(g), fun.morph(f))
                        if lhs != rhs:
                            violations.append(
                                f"composition not preserved at ({g!r},{f!r})")
    return LawReport(not violations, checked, tuple(violations[:20]))


@dataclass(frozen=True)
class FrankResult:
    status: str  # "pass" | "fail" | "no-lift"
    lifted: Any
    detail: str = ""


def check_frank_at(fun: Functor, a: Any, b_prime: Any,
                   max_hom: int = 200000) -> FrankResult:
    """Verify the surjectivity lift of `fun` at source a and target object b_prime."""
    try:
        b = fun.frank_lift(a, b_prime)
    except LiftError as exc:
        return FrankResult("no-lift", None, str(exc))
    if fun.obj(b) != b_prime:
        return FrankResult("fail", b, f"obj({b!r}) != {b_prime!r}")
    hab = fun.dom.hom(a, b)
    if len(hab) > max_hom:
        raise ValueError("hom at lifted object exceeds cap")
    image = {fun.morph(f).encode() for f in hab}
    target = {g.encode() for g in fun.cod.hom(fun.obj(a), b_prime)}
    if image != target:
        return FrankResult("fail", b, "image of hom differs from target hom")
    return FrankResult("pass", b)


def frank_pair(fun: Functor, d1: Any, d2: Any) -> tuple[Any, Any]:
    """Preimages (c1, c2) of (d1, d2) with morph(hom(c1,c2)) == hom(d1,d2).

    Chains the lift: any preimage c1 works, then c2 is lifted at source c1 so
    the image condition lands exactly on hom(d1, d2).
    """
    c1 = fun.frank_lift(d1, d1)
    c2 = fun.frank_lift(c1, d2)
    return c1, c2


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
