"""Finite categories with canonical byte encodings, the run budget, and law checks.

Objects and morphism payloads are immutable trees of ints, strings and tuples.
Every value has a canonical byte encoding (`canon_bytes`); equality of encoded
bytes is equality of values, and hom-sets are enumerated in lexicographic order
of the encoded payload.  Fixed-width order-preserving integer encoding makes
byte order agree with numeric order componentwise.  So within one hom-set
whose payloads are int tuples of one length (under one fixed tag, if any),
plain tuple order is canonical order, and such hom-sets sort their payloads
directly rather than through `sort_morphs`' byte keys.

A `Morph` is an immutable value: assigning or deleting a field raises
AttributeError.  It equals only another `Morph` with equal fields, hashes
as the tuple `(dom, cod, data)`, and pickles and copies by value.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import islice
from operator import le
from typing import Any, Iterable, Iterator, Sequence

_INT_OFFSET = 1 << 63  # shift signed values so byte order matches numeric order
# encoding and parsing refuse tuples nested deeper than this, well before the
# interpreter's recursion limit; payloads and objects nest a few levels
_MAX_DEPTH = 64


class EncodingError(ValueError):
    pass


class LiftError(ValueError):
    """No object satisfies the surjectivity lift at this target."""


def canon_bytes(value: Any) -> bytes:
    """Canonical injective encoding of nested ints/strs/tuples."""
    return _encode(value, 0)


def _encode(value: Any, depth: int) -> bytes:
    if type(value) is tuple and depth < _MAX_DEPTH:
        # most payloads are flat tuples of ints, encoded here in one pass; a
        # bool, str, tuple or out-of-range item takes the general path below
        try:
            parts = [b"I" + (x + _INT_OFFSET).to_bytes(8, "big")
                     for x in value if type(x) is int]
        except OverflowError:
            parts = []
        if len(parts) == len(value):
            return b"T" + len(parts).to_bytes(4, "big") + b"".join(parts)
    if isinstance(value, bool):
        raise EncodingError("booleans are not encodable payload values")
    if isinstance(value, int):
        shifted = value + _INT_OFFSET
        if not 0 <= shifted < (1 << 64):
            raise EncodingError(f"integer out of encodable range: {_shown(value)}")
        return b"I" + shifted.to_bytes(8, "big")
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + len(raw).to_bytes(4, "big") + raw
    if isinstance(value, tuple):
        if depth == _MAX_DEPTH:
            raise EncodingError(f"tuples nested deeper than {_MAX_DEPTH}")
        parts = [_encode(item, depth + 1) for item in value]
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
    except (TypeError, ValueError) as exc:      # TypeError: not a str
        raise EncodingError(f"not base-16: {exc}") from exc
    return canon_parse(raw)


def _parse_at(raw: bytes, at: int, depth: int = 0) -> tuple[Any, int]:
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
        if depth == _MAX_DEPTH:
            raise EncodingError(f"tuples nested deeper than {_MAX_DEPTH} "
                                f"at offset {at}")
        size = int.from_bytes(raw[at + 1:header], "big")
        items = []
        cursor = header
        for _ in range(size):
            item, cursor = _parse_at(raw, cursor, depth + 1)
            items.append(item)
        return tuple(items), cursor
    raise EncodingError(f"unknown tag {tag!r} at offset {at}")


def _shown(value: Any) -> str:
    """repr(value), with each int past 10**18 in size shown as "at least
    10**e" (or "at most -10**e"), so no message holds a huge int's digits."""
    if isinstance(value, tuple):
        return f"({', '.join(map(_shown, value))}{',' * (len(value) == 1)})"
    if isinstance(value, int) and abs(value) > 10 ** 18:
        exp = int(math.log10(abs(value)))   # the float may round up at 10**e
        exp -= abs(value) < 10 ** exp
        return f"at least 10**{exp}" if value > 0 else f"at most -10**{exp}"
    return repr(value)


class BudgetExceeded(Exception):
    """A check, hom-set or construction stage would overrun its cap.

    The message shows a count past 10**18 without its decimal digits: as
    "r**n" when `power=(r, n)` says that needed == r**n, else as "at least
    10**e".  `needed` stays exact.
    """

    def __init__(self, quantity: str, needed: int, cap: int, where: str = "",
                 *, power: tuple[int, int] | None = None):
        shown = (f"{power[0]}**{power[1]}" if power and needed > 10 ** 18
                 else _shown(needed))
        super().__init__(f"{quantity}: need {shown}, cap {_shown(cap)}{where}")
        self.quantity = quantity
        self.needed = needed
        self.cap = cap


def _hom_refusal(size: int, cap: int, x: Any, y: Any) -> BudgetExceeded:
    return BudgetExceeded("hom-set size", size, cap, f" at hom({_shown(x)}, {_shown(y)})")


@dataclass(frozen=True)
class SearchBudget:
    """Every cap a run obeys; certificates record only the first two."""

    max_colorings: int = 1_000_000
    max_hom_size: int = 2_000_000
    max_color_bits: int = 1_000_000
    max_pairs: int = 500_000

    def require_nonnegative(self, prefix: str = "") -> SearchBudget:
        """self, refusing the first negative cap by its prefixed name; only
        input is checked, as each call that gets no budget builds one."""
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{prefix}{name} must be at least 0, "
                                 f"got {value}")
        return self


class Morph:
    """A morphism with explicit domain and codomain object codes.

    An immutable value (see the module docstring).  `__init__` fills the
    slots through their descriptors, which builds one about twice as fast as
    a frozen dataclass does.
    """

    __slots__ = ("dom", "cod", "data")

    def __init__(self, dom: Any, cod: Any, data: Any) -> None:
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_data(self, data)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Morph")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a Morph")

    def __reduce__(self) -> tuple:
        return Morph, (self.dom, self.cod, self.data)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is Morph:
            return (self.data == other.data and self.dom == other.dom
                    and self.cod == other.cod)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.data))

    def __repr__(self) -> str:
        return f"Morph(dom={self.dom!r}, cod={self.cod!r}, data={self.data!r})"

    def key(self) -> bytes:
        return canon_bytes(self.data)

    def encode(self) -> bytes:
        return canon_bytes((self.dom, self.cod, self.data))


_set_dom = Morph.dom.__set__
_set_cod = Morph.cod.__set__
_set_data = Morph.data.__set__


def sort_morphs(morphs: Iterable[Morph]) -> tuple[Morph, ...]:
    return tuple(sorted(morphs, key=Morph.key))


class Category(ABC):
    """Finite-hom category handle.

    `hom` returns the full hom-set in canonical order; `hom_size` may count it
    without building it.  A category writes `compose_data(g, f)`, the payload
    of g∘f ("f then g"); `compose(g, f)` refuses a non-composable pair and
    adds the endpoints, dom f and cod g.  `action(a, b, c)` gives one row per
    g in hom(b, c), in order: the hom(a, c) indices of g∘f over hom(a, b).
    By default every row is composed and validated before `action`
    returns, so a composite outside hom(a, c) raises ValueError even in a
    row that no caller reads; `_checked_rows` holds that one refusal.  The
    rows come from `table(hab, hbc, hac)`: one row per g in hbc, the hac
    index of g∘f for each f in hab, or -1 where the composite is not in
    hac.  It ranks composite payloads, which are unique within one
    hom-set, and builds no `Morph`.  The law sweeps read the same builder
    through one hom store per handle (`_Kept`): `check_category_laws` puts
    a fresh one on the handle, never pickled, and `check_functor_laws` and
    `check_frank_at` read it when it is there.  Subsets and trees override
    `action` in closed form, unless a subclass overrides their
    `compose_data`: subsets return a lazy stream that reads once, since no
    row can leave hom(a, c), and trees a validated list.  Products override
    `action` with a stream of mixed-radix index sums over their factors'
    tables.  Each factor's `action` is called before the product's
    returns, so a factor on the default has validated its table by then;
    every factor's rows but the first are kept whole, and the first
    factor's rows are read only as the product's are.  `grade(a)` is a
    tuple of ints, `()` by default, under one contract: hom(a, b) is empty
    unless `grade_fits(grade(a), grade(b))` (trees: the node count at each
    depth).  The law sweeps size only the pairs whose grades fit.
    `moves(a, c)` names groups of permutations of the hom(a, c) indices, each
    a tuple of generators, where the engine's falsifier looks for colorings
    constant on their orbits; none by default.  A verdict never rests on a
    move being a symmetry: every coloring found is re-checked in full.
    """

    name: str = "category"
    encoding_version: str = "1"
    # the hom store of the last check_category_laws over this handle
    _kept: _Kept | None = None

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("_kept", None)
        return state

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
    def compose_data(self, g: Morph, f: Morph) -> Any:
        """The payload of g∘f, for composable f and g."""

    def compose(self, g: Morph, f: Morph) -> Morph:
        if f.cod != g.dom:
            raise ValueError(f"{self.name}: non-composable morphisms, cod f "
                             f"{_shown(f.cod)} != dom g {_shown(g.dom)}")
        return Morph(f.dom, g.cod, self.compose_data(g, f))

    def hom_size(self, a: Any, b: Any) -> int:
        return len(self.hom(a, b))

    def payload_bytes(self, a: Any, b: Any) -> list[bytes]:
        """Each payload's `canon_bytes`, in hom(a, b)'s order, for the
        fingerprint; an override reads the enumeration that `hom` reads."""
        return [canon_bytes(f.data) for f in self.hom(a, b)]

    def grade(self, a: Any) -> tuple[int, ...]:
        return ()

    def table(self, hab: Sequence[Morph], hbc: Sequence[Morph],
              hac: Sequence[Morph]) -> list[tuple[int, ...]]:
        pos = {h.data: i for i, h in enumerate(hac)}.get
        compose_data = self.compose_data
        return [tuple([pos(compose_data(g, f), -1) for f in hab]) for g in hbc]

    def action(self, a: Any, b: Any, c: Any) -> Iterable[tuple[int, ...]]:
        return self._checked_rows(a, b, c, self.table(
            self.hom(a, b), self.hom(b, c), self.hom(a, c)))

    def _checked_rows(self, a: Any, b: Any, c: Any,
                      rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """rows, if every entry is a hom(a, c) index; else the ValueError
        that names the first g in hom(b, c) and f in hom(a, b) whose
        composite is not in hom(a, c)."""
        for j, row in enumerate(rows):
            if -1 in row:
                g, f = self.hom(b, c)[j], self.hom(a, b)[row.index(-1)]
                raise ValueError(f"{self.name}: compose(g, f) is not in "
                                 f"hom({a!r}, {c!r}) for g={g!r}, f={f!r}")
        return rows

    def moves(self, a: Any, c: Any
              ) -> tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]:
        return ()

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
    """outer after inner; lift chains the factors' lifts.  The factors meet
    in one category: one handle, or one type with one registry spec."""

    def __init__(self, outer: Functor, inner: Functor):
        x, y = inner.cod, outer.dom
        try:
            same = x is y or (type(x), x.spec()) == (type(y), y.spec())
        except NotImplementedError:     # no spec: only the handle itself
            same = False
        if not same:
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


def compose_word(word: Sequence[Functor]) -> Functor:
    """Composite of a word [f1, f2, ..., fn] meaning fn∘...∘f1 (f1 applied first)."""
    if not word:
        raise ValueError("empty word has no domain; use IdentityFunctor")
    acc = word[0]
    for nxt in word[1:]:
        acc = ComposedFunctor(nxt, acc)
    return acc


def grade_fits(g: tuple[int, ...], h: tuple[int, ...]) -> bool:
    """The grade test: hom(a, b) is empty unless grade_fits(grade(a),
    grade(b)), i.e. equal length and g <= h entry by entry."""
    return len(g) == len(h) and all(map(le, g, h))


def _require_objects(cat: Category, *objects: Any) -> None:
    for obj in objects:
        if not cat.is_object(obj):
            raise ValueError(f"{_shown(obj)} is not an object of {cat.name}")


def require_hom_budget(cat: Category, budget: SearchBudget | None,
                       *pairs: tuple[Any, Any]) -> None:
    """Refuse before any hom(x, y) of the pairs is built: ValueError for a
    non-object, BudgetExceeded past the hom-size cap (None: the default)."""
    cap = (budget or SearchBudget()).max_hom_size
    for x, y in pairs:
        _require_objects(cat, x, y)
        size = cat.hom_size(x, y)
        if size > cap:
            raise _hom_refusal(size, cap, x, y)


def budgeted_hom(cat: Category, x: Any, y: Any,
                 budget: SearchBudget | None) -> tuple[Morph, ...]:
    """hom(x, y), refused past the budget's hom-size cap before it is built."""
    require_hom_budget(cat, budget, (x, y))
    return cat.hom(x, y)


@dataclass(frozen=True)
class LawReport:
    ok: bool
    checked: int
    violations: tuple[str, ...]


_KEPT_VIOLATIONS = 20  # LawReport.violations holds the first this many


class _Violations:
    """Formats only the messages a LawReport keeps, but notes every failure."""

    def __init__(self) -> None:
        self.found = False
        self.kept: list[str] = []

    def add(self, template: str, *args: Any) -> None:
        self.found = True
        if len(self.kept) < _KEPT_VIOLATIONS:
            self.kept.append(template.format(*args))

    def report(self, checked: int) -> LawReport:
        return LawReport(not self.found, checked, tuple(self.kept))


class _Kept:
    """The hom-sets and composition tables of `cat` that the law sweeps and
    frank checks have met; its callers refuse non-objects first.

    rows[a][b] = hom(a, b), () if empty.  `hom(x, y, cap)` sizes a pair once,
    when first met, refuses it past the cap before it is built, and builds it
    only if it is non-empty; a pair already held is refused by its length,
    as a fresh one would be.  `table(a, b, c)` is `cat.table` over hom(a, b),
    hom(b, c) and hom(a, c), built once per triple; the first two must be
    held, and hom(a, c) reads as empty unless it is, as a grade walk holds
    every pair whose grades fit.
    """

    def __init__(self, cat: Category):
        self.cat = cat
        self.rows: dict[Any, dict[Any, tuple[Morph, ...]]] = {}
        self.tables: dict[tuple[Any, Any, Any], list[tuple[int, ...]]] = {}

    def hom(self, x: Any, y: Any, cap: int) -> tuple[Morph, ...]:
        row = self.rows.setdefault(x, {})
        found = row.get(y)
        if found is None:
            size = self.cat.hom_size(x, y)
            if size > cap:
                raise _hom_refusal(size, cap, x, y)
            found = row[y] = self.cat.hom(x, y) if size else ()
        elif len(found) > cap:
            raise _hom_refusal(len(found), cap, x, y)
        return found

    def table(self, a: Any, b: Any, c: Any) -> list[tuple[int, ...]]:
        found = self.tables.get((a, b, c))
        if found is None:
            rows = self.rows
            found = self.tables[a, b, c] = self.cat.table(
                rows[a][b], rows[b][c], rows[a].get(c, ()))
        return found


def _stores(fun: Functor) -> tuple[_Kept, _Kept]:
    """The stores of fun.dom and fun.cod: the one `check_category_laws` left
    on each handle, else one for this call alone, shared when cod is dom."""
    dom = fun.dom._kept or _Kept(fun.dom)
    if fun.cod is fun.dom:
        return dom, dom
    return dom, fun.cod._kept or _Kept(fun.cod)


def _fragment(kept: _Kept, objects: Sequence[Any], cap: int
              ) -> dict[Any, dict[Any, tuple[Morph, ...]]]:
    """rows[a][b] = hom(a, b) for each non-empty hom-set of the fragment, in
    object order, read through `kept` under the hom-size cap.

    A non-object is refused with ValueError before any pair is met.  Objects
    are grouped by `cat.grade`, each pair of grades is tested once, and only
    the pairs whose grades fit are met, in walk order.  The skipped pairs are
    empty, so rows and the first refusal are those of the walk over all
    pairs.
    """
    cat = kept.cat
    _require_objects(cat, *objects)
    grades = [cat.grade(b) for b in objects]
    at: dict[tuple[int, ...], list[int]] = {}    # object indices by grade
    for i, g in enumerate(grades):
        at.setdefault(g, []).append(i)
    # targets[g]: the objects, in object order, whose grade g may map into
    targets = {g: [objects[i] for i in sorted(
        i for h, hi in at.items() if grade_fits(g, h) for i in hi)]
        for g in at}
    rows: dict[Any, dict[Any, tuple[Morph, ...]]] = {}
    for a, g in zip(objects, grades):
        row = rows[a] = {}
        for b in targets[g]:
            hab = kept.hom(a, b, cap)
            if hab:
                row[b] = hab
    return rows


def check_category_laws(cat: Category, objects: Sequence[Any],
                        budget: SearchBudget | None = None) -> LawReport:
    """Identity, associativity and closure over the given object fragment.

    Closure and associativity read composites as hom-set indices from one
    `cat.table` per object triple, the builder `Category.action` reads too;
    an associativity law whose indices are -1 on either side is decided by
    composing the arrows themselves.  The identity laws read f∘id and id∘f
    from the (a, a, b) and (a, b, b) tables at the identity's index in
    hom(a, a) or hom(b, b); they compose the arrows only where that identity
    is missing from its hom-set or has the wrong endpoints, where f is stray,
    or where the index differs from f's.  The hom-sets and tables are read
    through a fresh store (`_Kept`), which stays on `cat` in place of the
    last sweep's, for `check_functor_laws` and `check_frank_at` to read.
    """
    bad = _Violations()
    checked = 0
    kept = cat._kept = _Kept(cat)
    rows = _fragment(kept, objects, (budget or SearchBudget()).max_hom_size)
    tables = kept.tables
    ids = {a: cat.identity(a) for a in objects}
    # id_at[a]: the index of id_a in hom(a, a), or -1 if it is not there
    # with the endpoints (a, a)
    id_at = {}
    for a, ida in ids.items():
        haa = rows[a].get(a, ())
        id_at[a] = (haa.index(ida) if ida.dom == a == ida.cod and ida in haa
                    else -1)
    compose = cat.compose
    # one table per triple with non-empty hom(a, b) and hom(b, c)
    for a in objects:
        for b in rows[a]:
            for c in rows[b]:
                kept.table(a, b, c)

    for a in objects:
        ida, ia = ids[a], id_at[a]
        if ida.dom != a or ida.cod != a:
            bad.add("identity at {!r} has wrong endpoints", a)
        for b, hab in rows[a].items():
            idb, ib = ids[b], id_at[b]
            # f∘id_a at aab[fi][ia] and id_b∘f at abb[fi], as hom(a, b)
            # indices; both tables exist when the identity is in its hom-set
            aab = tables[a, a, b] if ia >= 0 else None
            abb = tables[a, b, b][ib] if ib >= 0 else None
            for fi, f in enumerate(hab):
                checked += 1
                stray = f.dom != a or f.cod != b
                if stray:
                    bad.add("hom({!r},{!r}) contains stray {!r}", a, b, f)
                if ((stray or aab is None or aab[fi][ia] != fi)
                        and compose(f, ida) != f):
                    bad.add("f∘id != f for {!r}", f)
                if ((stray or abb is None or abb[fi] != fi)
                        and compose(idb, f) != f):
                    bad.add("id∘f != f for {!r}", f)

    for a in objects:
        for b, hab in rows[a].items():
            for c, hbc in rows[b].items():
                # closure: composites land in the enumerated hom-set
                abc = tables[a, b, c]
                checked += len(hab) * len(hbc)
                for fi, f in enumerate(hab):
                    for g, gf_row in zip(hbc, abc):
                        if gf_row[fi] < 0:
                            bad.add("compose({!r},{!r}) not in hom({!r},{!r})",
                                    g, f, a, c)
                for d, hcd in rows[c].items():
                    # an index into hom(a, c) or hom(b, d) is -1 unless that
                    # hom-set is in the fragment, so a missing table is never
                    # read
                    bcd = tables[b, c, d]
                    acd, abd = tables.get((a, c, d)), tables.get((a, b, d))
                    checked += len(hab) * len(hbc) * len(hcd)
                    for fi, f in enumerate(hab):
                        for gi, g in enumerate(hbc):
                            i = abc[gi][fi]
                            for hi, h in enumerate(hcd):
                                j = bcd[hi][gi]
                                left = acd[hi][i] if i >= 0 else -1
                                right = abd[j][fi] if j >= 0 else -1
                                if (left != right if left >= 0 and right >= 0
                                        else compose(h, compose(g, f))
                                        != compose(compose(h, g), f)):
                                    bad.add("associativity fails at "
                                            "({!r},{!r},{!r})", h, g, f)
    return bad.report(checked)


def _image_ranks(hom: tuple[Morph, ...], pos: dict[Any, int], x: Any, y: Any,
                 hab: tuple[Morph, ...], a: Any, b: Any,
                 morph: Any) -> list[int]:
    """For each f in hom(a, b), the index of morph(f) in hom = hom(x, y),
    found through pos, the index of each payload in hom: -2 if the image is
    not in hom, -1 if the index cannot stand for the arrows in the law
    checks, as the image or f is stray."""
    ranks = []
    for f in hab:
        ff = morph(f)
        i = pos.get(ff.data, -1)
        if i < 0 or hom[i] != ff:
            # no arrow of hom at its payload's index; only a repeated
            # payload could put it elsewhere
            ranks.append(-1 if ff in hom else -2)
        elif ff.dom != x or ff.cod != y or f.dom != a or f.cod != b:
            ranks.append(-1)
        else:
            ranks.append(i)
    return ranks


def check_functor_laws(fun: Functor, objects: Sequence[Any],
                       budget: SearchBudget | None = None) -> LawReport:
    """Identities and composites preserved, and each image of hom(a, b) in
    hom(F a, F b), over the given object fragment.

    Hom-sets and tables are read through the stores of `fun.dom` and
    `fun.cod` (see `_stores`): the domain fragment is walked as the category
    sweep walks it, and each codomain hom(F a, F b) is met in sweep order
    before any law is read.  `morph` runs once per domain arrow, and each
    image is kept as its index in hom(F a, F b) (see `_image_ranks`).
    F(g∘f) == F g∘F f is then an index comparison,
    img_ac[T[g][f]] == codT[img_bc[g]][img_ab[f]], with T the domain table
    of (a, b, c) and codT the codomain table of (F a, F b, F c).  Where any
    of these indices is negative, the law is decided by composing the
    arrows, as the literal sweep does.  An object whose image is not a
    codomain object is reported, and where F a or F b is not one,
    hom(F a, F b) reads as empty, never sized or built, so each image of
    hom(a, b) is reported outside it.
    """
    bad = _Violations()
    checked = 0
    dom, cod, morph = fun.dom, fun.cod, fun.morph
    dom_kept, cod_kept = _stores(fun)
    cap = (budget or SearchBudget()).max_hom_size
    rows = _fragment(dom_kept, objects, cap)
    fobj = {a: fun.obj(a) for a in objects}
    mapped = {a for a in objects if cod.is_object(fobj[a])}
    # targets[F a, F b]: each codomain hom-set and its payloads' indices;
    # ranks[a, b]: the indices of the images of hom(a, b) in it
    targets: dict[tuple[Any, Any], tuple[tuple[Morph, ...], dict]] = {}
    ranks: dict[tuple[Any, Any], list[int]] = {}
    for a in objects:
        for b, hab in rows[a].items():
            key = (fobj[a], fobj[b])
            if key not in targets:
                hom = (cod_kept.hom(*key, cap) if a in mapped and b in mapped
                       else ())
                targets[key] = hom, {h.data: i for i, h in enumerate(hom)}
            ranks[a, b] = _image_ranks(*targets[key], *key, hab, a, b, morph)

    compose, cod_compose = dom.compose, cod.compose
    for a in objects:
        fa = fobj[a]
        if a not in mapped:
            bad.add("obj({!r}) = {!r} is not a codomain object", a, fa)
            continue
        if morph(dom.identity(a)) != cod.identity(fa):
            bad.add("identity at {!r} not preserved", a)
        for b, hab in rows[a].items():
            rab = ranks[a, b]
            for f, rank in zip(hab, rab):
                checked += 1
                if rank == -2:
                    bad.add("morph({!r}) outside hom of images", f)
            for c, hbc in rows[b].items():
                checked += len(hab) * len(hbc)
                rbc = ranks[b, c]
                # hom(a, c) outside the fragment, or F b or F c not an
                # object: no composite has an index
                table = codt = None
                if c in rows[a] and b in mapped and c in mapped:
                    table, rac = dom_kept.table(a, b, c), ranks[a, c]
                    codt = cod_kept.table(fa, fobj[b], fobj[c])
                for fi, f in enumerate(hab):
                    i = rab[fi]
                    for gi, g in enumerate(hbc):
                        j = rbc[gi]
                        k = -1 if codt is None else table[gi][fi]
                        if i >= 0 and j >= 0 and k >= 0 and rac[k] >= 0:
                            preserved = rac[k] == codt[j][i]
                        else:
                            preserved = (morph(compose(g, f))
                                         == cod_compose(morph(g), morph(f)))
                        if not preserved:
                            bad.add("composition not preserved at ({!r},{!r})",
                                    g, f)
    return bad.report(checked)


@dataclass(frozen=True)
class FrankResult:
    status: str  # "pass" | "fail" | "no-lift"
    lifted: Any
    detail: str = ""


def check_frank_at(fun: Functor, a: Any, b_prime: Any,
                   budget: SearchBudget | None = None) -> FrankResult:
    """Verify the surjectivity lift of `fun` at source a and target object
    b_prime; a non-object is refused with ValueError, and hom(a, b) or
    hom(obj(a), b_prime) past the budget's hom-size cap is refused unbuilt.
    Both hom-sets are read through the stores of `fun.dom` and `fun.cod`
    (see `_stores`), so one that `check_category_laws` left is neither sized
    nor built anew."""
    try:
        b = fun.frank_lift(a, b_prime)
    except LiftError as exc:
        return FrankResult("no-lift", None, str(exc))
    if fun.obj(b) != b_prime:
        return FrankResult("fail", b, f"obj({b!r}) != {b_prime!r}")
    cap = (budget or SearchBudget()).max_hom_size
    dom_kept, cod_kept = _stores(fun)
    _require_objects(fun.dom, a, b)
    image = {fun.morph(f) for f in dom_kept.hom(a, b, cap)}
    fa = fun.obj(a)
    _require_objects(fun.cod, fa, b_prime)
    if image != set(cod_kept.hom(fa, b_prime, cap)):
        return FrankResult("fail", b, "image of hom differs from target hom")
    return FrankResult("pass", b)


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
