"""Canonical encoding, morphism plumbing, and the law/frankness checkers."""

import copy
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from brute import brute_category_laws, brute_functor_laws

import ramcat
from ramcat import (BudgetExceeded, EncodingError, IdentityFunctor, LiftError,
                    Morph, SearchBudget, binomial, canon_bytes, canon_hex,
                    canon_parse, canon_unhex, check_category_laws,
                    check_functor_laws, check_frank_at, compose_word,
                    sort_morphs, subset_boundary, subset_category)
from ramcat.categories import (ORIENTATIONS, ProductCategory, ProductFunctor,
                               StepBoundary, StepCategory, SubsetCategory,
                               TreeCategory, WordBoundary, star, tree_category,
                               tree_truncation, word_category)
from ramcat.core import (Category, ComposedFunctor, Functor, FrankResult,
                         LawReport, _fragment, _Kept)


# ---------------------------------------------------------------------------
# encoding


ROUND_TRIP_VALUES = [
    0, 1, -1, 37, -2 ** 63, 2 ** 63 - 1,
    "", "abc", "naïve", "日本語",
    (), (1, 2, 3), ("x", (1, ("y", -2)), ()),
    (("V", (1, 2)), ("L", 0)),
]


@pytest.mark.parametrize("value", ROUND_TRIP_VALUES)
def test_canon_round_trip(value):
    assert canon_parse(canon_bytes(value)) == value
    assert canon_unhex(canon_hex(value)) == value


def test_canon_rejects_unencodable():
    with pytest.raises(EncodingError):
        canon_bytes(True)
    with pytest.raises(EncodingError):
        canon_bytes((1, False))
    with pytest.raises(EncodingError):
        canon_bytes(1.5)
    with pytest.raises(EncodingError):
        canon_bytes([1, 2])
    with pytest.raises(EncodingError):
        canon_bytes(2 ** 63)
    with pytest.raises(EncodingError):
        canon_bytes(-2 ** 63 - 1)


@pytest.mark.parametrize("text", [3, None, ["00"], b"00"])
def test_canon_unhex_refuses_non_strings(text):
    with pytest.raises(EncodingError, match="not base-16"):
        canon_unhex(text)


@pytest.mark.parametrize("value, shown", [
    (10 ** 5000, "at least 10**5000"), (-10 ** 5000, "at most -10**5000"),
    (2 ** 63, "at least 10**18")], ids=["10**5000", "-10**5000", "2**63"])
def test_out_of_range_ints_are_refused_without_their_digits(value, shown):
    with pytest.raises(EncodingError) as exc:
        canon_bytes(value)
    assert str(exc.value) == f"integer out of encodable range: {shown}"


def test_canon_parse_rejects_malformed():
    good = canon_bytes((1, "ab"))
    with pytest.raises(EncodingError, match="trailing"):
        canon_parse(good + b"\x00")
    with pytest.raises(EncodingError, match="truncated"):
        canon_parse(good[:-1])
    with pytest.raises(EncodingError, match="offset 0"):
        canon_parse(b"Zjunk")
    with pytest.raises(EncodingError, match="truncated integer"):
        canon_parse(b"I\x00\x00")
    with pytest.raises(EncodingError):
        canon_unhex("zz")
    with pytest.raises(EncodingError):
        canon_parse(b"")


def test_canon_parse_refuses_deep_nesting():
    def nested(depth):
        return b"T\x00\x00\x00\x01" * depth + canon_bytes(2)

    def wrapped(depth, inner=2):
        for _ in range(depth):
            inner = (inner,)
        return inner

    value = wrapped(64)
    assert canon_parse(nested(64)) == value
    # the encoder stops at the same depth
    assert canon_bytes(value) == nested(64)
    assert canon_parse(canon_bytes(wrapped(63, (2, 3)))) == wrapped(63, (2, 3))
    for depth in (65, 5000):
        with pytest.raises(EncodingError,
                           match="tuples nested deeper than 64 at offset 320"):
            canon_parse(nested(depth))
        # depth levels of tuples, the innermost of ints only or not
        for value in (wrapped(depth), wrapped(depth - 1, (2, 3)),
                      wrapped(depth - 1, ("x", 2))):
            with pytest.raises(EncodingError,
                               match="^tuples nested deeper than 64$"):
                canon_bytes(value)


def test_int_encoding_preserves_order():
    samples = [-2 ** 63, -500, -1, 0, 1, 7, 10, 2 ** 40, 2 ** 63 - 1]
    encoded = [canon_bytes(v) for v in samples]
    assert encoded == sorted(encoded)


def test_tuple_encoding_orders_lexicographically():
    # same-length tuples compare like their entries
    tuples = [(1, 2), (1, 3), (2, 1), (2, 2)]
    encoded = [canon_bytes(t) for t in tuples]
    assert encoded == sorted(encoded)


def test_morph_key_and_sort():
    ms = [Morph(1, 3, (3,)), Morph(1, 3, (1,)), Morph(1, 3, (2,))]
    assert [m.data for m in sort_morphs(ms)] == [(1,), (2,), (3,)]
    m = Morph(2, 4, (1, 3))
    assert m.key() == canon_bytes((1, 3))
    assert m.encode() == canon_bytes((2, 4, (1, 3)))
    assert canon_parse(m.encode()) == (2, 4, (1, 3))


def test_morph_is_an_immutable_value():
    m = Morph(2, 4, (1, 3))
    for field in ("dom", "cod", "data"):
        with pytest.raises(AttributeError):
            setattr(m, field, 0)
        with pytest.raises(AttributeError):
            delattr(m, field)
    assert (m.dom, m.cod, m.data) == (2, 4, (1, 3))
    assert hash(m) == hash((m.dom, m.cod, m.data))
    assert repr(m) == "Morph(dom=2, cod=4, data=(1, 3))"
    assert repr(Morph(("V", (1,)), ("L", 0), ("F", ()))) == \
        "Morph(dom=('V', (1,)), cod=('L', 0), data=('F', ()))"
    for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m),
                   copy.copy(m)):
        assert type(copied) is Morph and copied == m
        assert hash(copied) == hash(m)
    assert m == Morph(2, 4, (1, 3)) and m != Morph(2, 4, (1, 2))
    assert m != (m.dom, m.cod, m.data)
    with pytest.raises(EncodingError):
        canon_bytes(m)


# ---------------------------------------------------------------------------
# functor composition plumbing


class _Shift(Functor):
    """Test stub: moves subset-category objects up, reindexes payloads."""

    def __init__(self, cat, d):
        super().__init__(cat, cat)
        self.d = d
        self.name = f"shift{d}"

    def obj(self, a):
        return a + self.d

    def morph(self, f):
        return Morph(self.obj(f.dom), self.obj(f.cod),
                     tuple(x + self.d for x in f.data))

    def frank_lift(self, a, b_prime):
        return b_prime - self.d


class _Clamp(Functor):
    """Test stub: clamps objects at a ceiling (not a real functor; order probe)."""

    def __init__(self, cat, top):
        super().__init__(cat, cat)
        self.top = top

    def obj(self, a):
        return min(a, self.top)

    def morph(self, f):
        return Morph(self.obj(f.dom), self.obj(f.cod), f.data)


def test_compose_word_applies_first_entry_first():
    cat = subset_category()
    up = _Shift(cat, 1)
    cap = _Clamp(cat, 2)
    assert compose_word([up, cap]).obj(2) == 2   # up then cap
    assert compose_word([cap, up]).obj(2) == 3   # cap then up
    with pytest.raises(ValueError):
        compose_word([])


def test_composed_functor_structure():
    delta = subset_boundary()
    dd = ComposedFunctor(delta, delta)
    assert dd.obj(5) == 3
    assert dd.obj(1) == 0
    f = Morph(2, 5, (2, 5))
    assert dd.morph(f) == Morph(0, 3, ())
    assert dd.spec() == {"kind": "compose", "outer": delta.spec(),
                         "inner": delta.spec()}
    assert dd.frank_lift(2, 4) == 6
    ident = IdentityFunctor(subset_category())
    assert ident.obj(4) == 4
    assert ident.frank_lift(1, 9) == 9
    assert ident.spec() == {"kind": "identity", "category": {"kind": "subset"}}


class _Lookalike(type(subset_category())):
    """Test stub: another category that also calls itself "subset"."""


class _Unregistered(_Lookalike):
    def spec(self):
        raise NotImplementedError("no registry spec")


def test_composition_needs_one_category_not_one_name():
    delta = subset_boundary()
    assert _Lookalike.name == _Unregistered.name == delta.cod.name == "subset"
    for foreign in (_Lookalike(), _Unregistered()):
        with pytest.raises(ValueError, match="not composable"):
            ComposedFunctor(IdentityFunctor(foreign), delta)
        # a category always composes with its own handle
        ident = IdentityFunctor(foreign)
        assert ComposedFunctor(ident, ident).dom is foreign
    # two handles of one registered category compose
    assert ComposedFunctor(subset_boundary(), delta).obj(5) == 3


def test_default_frank_lift_raises():
    cat = subset_category()
    plain = _Clamp(cat, 3)
    with pytest.raises(LiftError):
        plain.frank_lift(1, 2)


# ---------------------------------------------------------------------------
# the law checkers must actually catch breakage


class _BrokenCompose(type(subset_category())):
    def compose_data(self, g, f):
        good = super().compose_data(g, f)
        if len(good) == 2:  # scramble only some composites
            return good[::-1]
        return good


def test_category_law_checker_flags_bad_composition():
    rep = check_category_laws(_BrokenCompose(), [1, 2, 3, 4])
    assert not rep.ok
    assert rep.violations


def test_default_action_names_a_composite_outside_the_hom():
    with pytest.raises(ValueError, match=r"not in hom\(2, 4\)") as exc:
        list(_BrokenCompose().action(2, 3, 4))
    assert "g=Morph(" in str(exc.value) and "f=Morph(" in str(exc.value)


class _BrokenImage(Functor):
    """Mirrors singleton payloads only; valid morphisms, broken composition."""

    def __init__(self, cat):
        super().__init__(cat, cat)

    def obj(self, a):
        return a

    def morph(self, f):
        if f.dom == 1:
            return Morph(f.dom, f.cod, (f.cod + 1 - f.data[0],))
        return f


def test_functor_law_checker_flags_bad_morph_map():
    rep = check_functor_laws(_BrokenImage(subset_category()), [0, 1, 2, 3])
    assert not rep.ok
    assert any("composition" in v for v in rep.violations)


def test_law_checkers_pass_on_the_subset_category():
    cat = subset_category()
    objs = list(range(6))
    rep = check_category_laws(cat, objs)
    assert rep.ok and rep.checked > 0 and rep.violations == ()
    frep = check_functor_laws(subset_boundary(cat), objs)
    assert frep.ok


class _ScrambledCompose(type(subset_category())):
    """Breaks only composites of two non-identities, so closure and
    associativity are what fail."""

    def compose_data(self, g, f):
        good = super().compose_data(g, f)
        if f.dom != f.cod and g.dom != g.cod and len(good) == 2:
            return good[::-1]
        return good


class _ReassignedCompose(type(subset_category())):
    """Sends each composite of two non-identities to its mirror image, another
    arrow of the same hom-set: closed, but not associative, so the violations
    are found by comparing hom-set indices."""

    def compose_data(self, g, f):
        good = super().compose_data(g, f)
        if f.dom != f.cod and g.dom != g.cod:
            return tuple(g.cod + 1 - x for x in reversed(good))
        return good


def test_law_reports_are_pinned():
    # ok, checked and the kept violations, in order, must not depend on which
    # empty hom-sets the sweeps skip
    cat = subset_category()
    hom = cat.hom

    rep = check_category_laws(_BrokenCompose(), [1, 2, 3, 4])
    assert rep == LawReport(False, 336, tuple(
        f"{law} != f for {f!r}" for b in (2, 3, 4) for f in hom(2, b)
        for law in ("f∘id", "id∘f")))

    rep = check_category_laws(_ScrambledCompose(), [2, 3, 4, 5])
    closure = [f"compose({g!r},{f!r}) not in hom(2,4)"
               for f in hom(2, 3) for g in hom(3, 4)]
    assoc = [f"associativity fails at ({h!r},{g!r},{f!r})"
             for f in hom(2, 3) for g in hom(3, 4) for h in hom(4, 5)]
    assert rep == LawReport(False, 668, tuple(closure + assoc[:8]))

    rep = check_functor_laws(_BrokenImage(cat), [0, 1, 2, 3])
    assert rep == LawReport(False, 55, tuple(
        f"composition not preserved at ({g!r},{f!r})"
        for f in hom(1, 2) for g in hom(2, 3) if g.data != (1, 3)))

    objs = list(range(7))
    assert check_category_laws(cat, objs) == LawReport(True, 6681, ())
    assert check_functor_laws(subset_boundary(cat), objs) == \
        LawReport(True, 1220, ())

    tcat = tree_category()
    trees = tcat.objects(23)            # every tree with at most 5 nodes
    assert len(trees[-1]) == 5 and len(tcat.objects(24)[-1]) == 6
    assert check_category_laws(tcat, trees) == LawReport(True, 715, ())
    assert check_functor_laws(tree_truncation(tcat), trees) == \
        LawReport(True, 293, ())


class _OneObject(Category):
    """The object "x" with the given hom("x", "x") and identity, neither of
    them checked; g∘f is f when g's payload is "e", else g."""

    def __init__(self, arrows, identity):
        self.arrows, self.ident = arrows, identity

    def is_object(self, a):
        return a == "x"

    def iter_objects(self):
        yield "x"

    def hom(self, a, b):
        return self.arrows if a == b == "x" else ()

    def identity(self, a):
        return self.ident

    def compose_data(self, g, f):
        return f.data if g.data == "e" else g.data


# the monoid {e, t} with t∘t = t, on one object
_MONOID = _OneObject((Morph("x", "x", "e"), Morph("x", "x", "t")),
                     Morph("x", "x", "e"))


class _ToMonoid(Functor):
    """Subsets to the monoid: every object to "x", each arrow f to the
    payload send(f); the lift keeps the source object."""

    def __init__(self, send):
        super().__init__(subset_category(), _MONOID)
        self.send = send

    def obj(self, a):
        return "x"

    def morph(self, f):
        return Morph("x", "x", self.send(f))

    def frank_lift(self, a, b_prime):
        return a


class _Listed(Category):
    """The objects "x" and "y" with the listed hom-sets and identities, none
    of them checked; g∘f is f when g's payload is "e", "v" for t∘e (so e is
    no right identity for t), else g."""

    def __init__(self, homs, ids):
        self.homs, self.ids = homs, ids

    def is_object(self, a):
        return a in ("x", "y")

    def iter_objects(self):
        yield from ("x", "y")

    def hom(self, a, b):
        return self.homs.get((a, b), ())

    def identity(self, a):
        return self.ids[a]

    def compose_data(self, g, f):
        if g.data == "e":
            return f.data
        return "v" if (g.data, f.data) == ("t", "e") else g.data


def _arrows(dom, cod, *data):
    return tuple(Morph(dom, cod, d) for d in data)


def _identity_fallbacks():
    """Fixtures whose identity laws the sweep must decide by composing:
    (id, category, a violation its report must hold)."""
    ex, zz = Morph("x", "x", "e"), Morph("z", "z", "e")
    # hom("x", "x") holds e but not the identity i, and i∘f is i
    yield ("missing identity", _Listed(
        {("x", "x"): _arrows("x", "x", "e", "t"),
         ("x", "y"): _arrows("x", "y", "t", "u"),
         ("y", "y"): _arrows("y", "y", "e")},
        {"x": Morph("x", "x", "i"), "y": Morph("y", "y", "e")}),
        "id∘f != f for Morph(dom='x', cod='x', data='t')")
    # the identity at "y" is the first arrow of hom("y", "y"), with the
    # endpoints ("z", "z") like every arrow there, so all of them compose
    yield ("identity with wrong endpoints", _Listed(
        {("x", "x"): _arrows("x", "x", "e", "t"),
         ("y", "y"): _arrows("z", "z", "e", "t")},
        {"x": ex, "y": zz}), "identity at 'y' has wrong endpoints")
    # a stray arrow composes only with an identity as stray as itself, so the
    # arrows of hom("x", "y") end at "z", where the identity at "y" does
    yield ("stray arrow", _Listed(
        {("x", "x"): _arrows("x", "x", "e", "t"),
         ("x", "y"): _arrows("x", "z", "t", "u"),
         ("y", "y"): (zz,)},
        {"x": ex, "y": zz}),
        "hom('x','y') contains stray Morph(dom='x', cod='z', data='u')")


@pytest.mark.parametrize("cat, violation", [
    pytest.param(cat, violation, id=name)
    for name, cat, violation in _identity_fallbacks()])
def test_identity_laws_fall_back_to_composing(cat, violation):
    # each fixture breaks what it names; its report equals the literal
    # sweep's, order and all, in test_category_laws_match_the_literal_sweep
    rep = check_category_laws(cat, ["x", "y"])
    assert not rep.ok and violation in rep.violations


@pytest.mark.parametrize("homs, ids", [
    # the identity at "x" is in hom("x", "x"), with the endpoints ("z", "z")
    ({("x", "x"): _arrows("z", "z", "e"), ("x", "y"): _arrows("x", "y", "u"),
      ("y", "y"): _arrows("y", "y", "e")}, "zy"),
    # a stray u from "w", and one to "w", each next to true identities
    ({("x", "x"): _arrows("x", "x", "e"), ("x", "y"): _arrows("w", "y", "u"),
      ("y", "y"): _arrows("y", "y", "e")}, "xy"),
    ({("x", "x"): _arrows("x", "x", "e"), ("x", "y"): _arrows("x", "w", "u"),
      ("y", "y"): _arrows("y", "y", "e")}, "xy")],
    ids=["identity with wrong endpoints", "stray source", "stray target"])
def test_identity_laws_compose_what_the_literal_sweep_composes(homs, ids):
    # every table index says f∘id == f == id∘f, but the literal sweep
    # composes a stray arrow or identity and is refused, and so is this one
    cat = _Listed(homs, {a: Morph(o, o, "e") for a, o in zip("xy", ids)})
    for sweep in (check_category_laws, brute_category_laws):
        with pytest.raises(ValueError, match="non-composable"):
            sweep(cat, ["x", "y"])


def test_category_law_reports_name_bad_identities_and_stray_arrows():
    assert check_category_laws(_MONOID, ["x"]) == LawReport(True, 14, ())
    # hom("x", "x") is empty, so only the identity's endpoints are read
    rep = check_category_laws(_OneObject((), Morph("x", "y", ())), ["x"])
    assert rep == LawReport(False, 0, ("identity at 'x' has wrong endpoints",))
    # compose refuses a stray arrow next to a true identity, so the stray
    # composes only with an identity as stray as itself
    stray = Morph("y", "y", ())
    rep = check_category_laws(_OneObject((stray,), stray), ["x"])
    assert rep == LawReport(False, 3, (
        "identity at 'x' has wrong endpoints",
        "hom('x','x') contains stray Morph(dom='y', cod='y', data=())"))


def test_functor_law_reports_name_each_broken_law():
    cat = subset_category()
    assert check_functor_laws(_Shift(cat, -1), [0]) == LawReport(
        False, 0, ("obj(0) = -1 is not a codomain object",))
    # t∘t = t, so sending everything to t preserves composition only
    assert check_functor_laws(_ToMonoid(lambda f: "t"), [0]) == LawReport(
        False, 2, ("identity at 0 not preserved",))
    # u is no arrow of the monoid, though u∘e = e∘u = u keeps composition
    off_hom = _ToMonoid(lambda f: "e" if f.dom == f.cod else "u")
    assert check_functor_laws(off_hom, [0, 1]) == LawReport(False, 7, (
        "morph(Morph(dom=0, cod=1, data=())) outside hom of images",))


class _Relabel(Functor):
    """Between categories with the one object "x": each arrow to the arrow
    of the codomain's hom("x", "x") with its payload."""

    def obj(self, a):
        return "x"

    def morph(self, f):
        return next(h for h in self.cod.hom("x", "x") if h.data == f.data)


def test_functor_laws_compose_stray_arrows_as_the_literal_sweep_does():
    # a stray t, from "z" to "x", in the codomain's or the domain's
    # hom("x", "x"): its index there stands for no composite, and the
    # literal sweep refuses to compose it after e
    e = Morph("x", "x", "e")
    stray = _OneObject((e, Morph("z", "x", "t")), e)
    for fun in (_Relabel(_MONOID, stray), _Relabel(stray, _MONOID)):
        for sweep in (check_functor_laws, brute_functor_laws):
            with pytest.raises(ValueError, match="non-composable"):
                sweep(fun, ["x"])


def test_frank_check_fails_when_the_image_misses_the_target():
    # obj(0) == "x", but hom(0, 0) reaches only e of hom("x", "x") = {e, t}
    assert check_frank_at(_ToMonoid(lambda f: "e"), 0, "x") == FrankResult(
        "fail", 0, "image of hom differs from target hom")


def test_reassigned_composites_are_pinned():
    # (f, g, h) in hom(1, 2), hom(2, 3), hom(3, 4), written as digit strings
    kept = ("1 12 124", "1 12 134", "1 12 234", "1 13 123", "1 13 124",
            "1 13 134", "1 13 234", "1 23 124", "1 23 134", "1 23 234",
            "2 12 123", "2 12 124", "2 12 134", "2 13 123", "2 13 124",
            "2 13 134", "2 13 234", "2 23 123", "2 23 124", "2 23 134")
    messages = []
    for text in kept:
        f, g, h = (tuple(map(int, part)) for part in text.split())
        messages.append(f"associativity fails at ({Morph(3, 4, h)!r},"
                        f"{Morph(2, 3, g)!r},{Morph(1, 2, f)!r})")
    rep = check_category_laws(_ReassignedCompose(), [1, 2, 3, 4])
    assert rep == LawReport(False, 336, tuple(messages))


_HJ1_BY_R = [(x, y) for x in (("V", (1, 2)), ("L", 0), ("L", 1), ("L", 2))
             for y in (1, 2, 3)]


def _law_fragments():
    yield pytest.param(subset_category(), list(range(6)), id="R")
    for orientation in ORIENTATIONS:
        cat = StepCategory(orientation)
        objs = [(k, t) for k in (1, 2, 3) for t in (0, 1)
                if cat.is_object((k, t))]
        yield pytest.param(cat, objs + [(l, 2) for l in range(1, 6)],
                           id=f"P:{orientation}")
    for k0 in (0, 1):
        hj = word_category(k0)
        yield pytest.param(hj, list(hj.v_objects())
                           + [("L", l) for l in range(4)], id=f"HJ:{k0}")
    yield pytest.param(tree_category(), tree_category().objects(23),
                       id="trees<=5")
    rr = ProductCategory((subset_category(), subset_category()))
    yield pytest.param(rr, [rr.pack(v) for v in ((0, 0), (1, 1), (1, 2),
                                                 (2, 2), (2, 3), (3, 3))],
                       id="RxR")
    # a word factor reads its window from the arrow's domain
    hr = ProductCategory((word_category(1), subset_category()))
    yield pytest.param(hr, [hr.pack(v) for v in _HJ1_BY_R], id="HJ:1xR")
    yield pytest.param(_BrokenCompose(), [1, 2, 3, 4], id="broken")
    yield pytest.param(_ScrambledCompose(), [2, 3, 4, 5], id="scrambled")
    yield pytest.param(_ReassignedCompose(), [1, 2, 3, 4, 5], id="reassigned")
    for name, cat, _ in _identity_fallbacks():
        yield pytest.param(cat, ["x", "y"], id=name)


@pytest.mark.parametrize("cat, objs", _law_fragments())
def test_category_laws_match_the_literal_sweep(cat, objs):
    assert check_category_laws(cat, objs) == brute_category_laws(cat, objs)


def _functor_fragments():
    yield pytest.param(subset_boundary(), list(range(6)), id="R")
    for orientation in ORIENTATIONS:
        cat = StepCategory(orientation)
        objs = [(k, t) for k in (1, 2, 3) for t in (0, 1)
                if cat.is_object((k, t))]
        yield pytest.param(StepBoundary(cat),
                           objs + [(l, 2) for l in range(1, 6)],
                           id=f"P:{orientation}")
    for k0 in (0, 1):
        hj = word_category(k0)
        yield pytest.param(WordBoundary(hj), list(hj.v_objects())
                           + [("L", l) for l in range(4)], id=f"HJ:{k0}")
    yield pytest.param(tree_truncation(), tree_category().objects(23),
                       id="trees<=5")
    rr = ProductFunctor((subset_boundary(), subset_boundary()))
    yield pytest.param(rr, [rr.dom.pack(v) for v in ((0, 0), (1, 1), (1, 2),
                                                     (2, 2), (2, 3), (3, 3))],
                       id="RxR")
    hr = ProductFunctor((WordBoundary(word_category(1)), subset_boundary()))
    yield pytest.param(hr, [hr.dom.pack(v) for v in _HJ1_BY_R], id="HJ:1xR")
    yield pytest.param(_BrokenImage(subset_category()), [0, 1, 2, 3],
                       id="broken-image")
    yield from _perturbed_truncations()


class _Perturbed(type(tree_truncation())):
    """Tree truncation on its own handle, with the image of the first arrow
    of hom((1, 1, 0), (2, 1, 0, 1, 0)) replaced by `send(images)`, where
    `images` is the true truncation of that hom-set."""

    def __init__(self, send):
        super().__init__(tree_category())
        first, second = self.dom.hom((1, 1, 0), (2, 1, 0, 1, 0))
        self.first = first
        self.image = send([super().morph(first), super().morph(second)])

    def morph(self, f):
        return self.image if f == self.first else super().morph(f)


def _perturbed_truncations():
    trees = tree_category().objects(23)
    # the image of the other arrow, still in hom((1, 0), (2, 0, 0)): the one
    # law it breaks, through (2, 1, 0, 0), fails as a hom-set index mismatch
    yield pytest.param(_Perturbed(lambda images: images[1]), trees,
                       id="trees<=5 swapped")
    # a map with the image's endpoints that is no embedding, so outside the
    # hom-set: every law reading its index is decided by composing
    yield pytest.param(_Perturbed(lambda images: Morph(
        images[0].dom, images[0].cod, (0, 0))), trees, id="trees<=5 off-hom")


@pytest.mark.parametrize("fun, objs", _functor_fragments())
def test_functor_laws_match_the_literal_sweep(fun, objs):
    # cold, on a store of its own; then warm, on the store of hom-sets and
    # tables that the category sweep leaves on the same domain handle
    want = brute_functor_laws(fun, objs)
    assert fun.dom._kept is None
    assert check_functor_laws(fun, objs) == want
    assert fun.dom._kept is None
    check_category_laws(fun.dom, objs)
    assert list(fun.dom._kept.rows) == list(objs)
    assert check_functor_laws(fun, objs) == want


@pytest.mark.parametrize("fun, composes", [
    (tree_truncation(), 0), *((p.values[0], n) for p, n in zip(
        _perturbed_truncations(), (0, 6)))], ids=["trees<=5", "swapped",
                                                   "off-hom"])
def test_functor_sweep_composes_only_where_an_index_is_negative(
        monkeypatch, fun, composes):
    # warm: every law is an index comparison unless an image is outside its
    # hom-set; the swapped image's violations come from indices alone, and
    # the three laws that read the off-hom image compose twice each
    trees = tree_category().objects(23)
    want = brute_functor_laws(fun, trees)
    assert want.ok == (fun.__class__ is not _Perturbed)
    check_category_laws(fun.dom, trees)
    seen = []
    compose = Category.compose
    monkeypatch.setattr(Category, "compose", lambda self, g, f:
                        seen.append(1) or compose(self, g, f))
    assert check_functor_laws(fun, trees) == want
    assert len(seen) == composes


@pytest.mark.parametrize("cat, objs, calls", [
    (subset_category(), list(range(7)), 1093),
    (tree_category(), tree_category().objects(23), 209)],
    ids=["R", "trees"])
def test_category_laws_compose_each_table_entry_once(monkeypatch, cat, objs,
                                                     calls):
    # one per entry of one table per object triple, and none for the
    # identity laws, which read those tables; the literal sweep makes 15,367
    # and 1,542
    seen = []
    compose_data = type(cat).compose_data
    monkeypatch.setattr(type(cat), "compose_data", lambda self, g, f:
                        seen.append(1) or compose_data(self, g, f))
    assert check_category_laws(cat, objs).ok
    assert len(seen) == calls


def _graded_fragments():
    yield pytest.param(tree_category(), tree_category().objects(65),
                       id="trees<=6")
    yield pytest.param(subset_category(), list(range(6)), id="R")
    for orientation in ORIENTATIONS:
        cat = StepCategory(orientation)
        yield pytest.param(cat, cat.objects(20), id=f"P:{orientation}")
    hj = word_category(0)
    yield pytest.param(hj, list(hj.v_objects()) + [("L", l) for l in range(4)],
                       id="HJ:0")
    rr = ProductCategory((subset_category(), subset_category()))
    yield pytest.param(rr, [rr.pack(v) for v in ((0, 0), (1, 1), (1, 2),
                                                 (2, 2), (2, 3), (3, 3))],
                       id="RxR")


@pytest.mark.parametrize("cat, objs", _graded_fragments())
def test_graded_fragment_matches_the_all_pairs_walk(cat, objs):
    literal = [(a, [(b, cat.hom(a, b)) for b in objs if cat.hom_size(a, b)])
               for a in objs]
    rows = _fragment(_Kept(cat), objs, SearchBudget().max_hom_size)
    assert [(a, list(row.items())) for a, row in rows.items()] == literal


def test_law_sweeps_size_hom_sets_only_within_a_grade(monkeypatch):
    sized = []
    hom_size = TreeCategory.hom_size
    monkeypatch.setattr(TreeCategory, "hom_size",
                        lambda self, a, b: sized.append((a, b))
                        or hom_size(self, a, b))
    cat = tree_category()
    trees = cat.objects(65)

    def levels(t):
        # the node count at each depth, read off the child-count tuple: a
        # node's depth is the number of ancestors with children still due
        depths, due = [], []
        for kids in t:
            depths.append(len(due))
            if due:
                due[-1] -= 1
            due.append(kids)
            while due and due[-1] == 0:
                due.pop()
        return tuple(depths.count(d) for d in range(max(depths) + 1))

    heights = Counter(len(levels(t)) - 1 for t in trees)
    assert sorted(heights.items()) == [(0, 1), (1, 5), (2, 26), (3, 24),
                                       (4, 8), (5, 1)]

    def fits(a, b):
        la, lb = levels(a), levels(b)
        return len(la) == len(lb) and all(x <= y for x, y in zip(la, lb))

    passing = [(a, b) for a in trees for b in trees if fits(a, b)]
    assert len(passing) == 430
    calls = []
    # the functor sweep on a handle of its own, the category sweep, then the
    # functor sweep on the store that the category sweep left
    for sweep, subject in ((check_functor_laws, tree_truncation()),
                           (check_category_laws, cat),
                           (check_functor_laws, tree_truncation(cat))):
        sized.clear()
        assert sweep(subject, trees).ok
        assert all(fits(a, b) for a, b in sized)
        calls.append(list(sized))
    cold, laws, warm = calls
    # one call per pair whose level profiles may embed, in walk order: 430
    # of the 4,225 pairs; the functor sweep's 55 codomain keys
    # hom(F a, F b) are domain pairs that its store already holds, so it
    # sizes none of them anew, and the warm sweep sizes nothing
    trunc = tree_truncation(cat)
    keys = {(trunc.obj(a), trunc.obj(b)) for a, b in passing
            if hom_size(cat, a, b)}
    assert len(keys) == 55 and keys <= set(passing)
    assert laws == passing
    assert cold == laws and warm == []


def test_the_fragment_a_category_sweep_leaves_is_not_pickled():
    cat = subset_category()
    check_category_laws(cat, list(range(4)))
    assert list(cat._kept.rows) == [0, 1, 2, 3]
    for clone in (pickle.loads(pickle.dumps(cat)), copy.deepcopy(cat)):
        assert clone._kept is None and clone.hom(1, 3) == cat.hom(1, 3)


def test_law_sweeps_refuse_a_large_hom_before_building_it(monkeypatch):
    built = []
    hom = SubsetCategory.hom
    monkeypatch.setattr(SubsetCategory, "hom",
                        lambda self, a, b: built.append((a, b)) or hom(self, a, b))
    budget = SearchBudget(max_hom_size=100)
    # hom(3, 60) has C(60, 3) = 34,220 arrows
    for sweep, subject in ((check_category_laws, subset_category()),
                           (check_functor_laws, subset_boundary())):
        with pytest.raises(BudgetExceeded) as exc:
            sweep(subject, [3, 60], budget=budget)
        assert str(exc.value) == "hom-set size: need 34220, cap 100 at hom(3, 60)"
    assert (3, 60) not in built
    # warm: a category sweep under a generous cap leaves hom(3, 60) in the
    # fragment on the handle, which the functor sweep under the small cap
    # must not read; it walks afresh and refuses unbuilt
    delta = subset_boundary()
    assert check_category_laws(delta.dom, [3, 60],
                               budget=SearchBudget(max_hom_size=50_000)).ok
    assert (3, 60) in built
    built.clear()
    with pytest.raises(BudgetExceeded) as exc:
        check_functor_laws(delta, [3, 60], budget=budget)
    assert str(exc.value) == "hom-set size: need 34220, cap 100 at hom(3, 60)"
    assert built == []


def test_functor_laws_refuse_a_large_codomain_hom_before_building_it(
        monkeypatch):
    built = []
    hom = TreeCategory.hom
    monkeypatch.setattr(TreeCategory, "hom",
                        lambda self, a, b: built.append((a, b)) or hom(self, a, b))
    # a root over 100 children, the first two with one leaf child each: one
    # arrow from a, whose truncation hom((2, 0, 0), star(100)) has 4,950
    a, b = (2, 1, 0, 1, 0), (100, 1, 0, 1, 0) + (0,) * 98
    trunc = tree_truncation()
    assert trunc.dom.hom_size(a, b) == 1
    with pytest.raises(BudgetExceeded) as exc:
        check_functor_laws(trunc, [a, b],
                           budget=SearchBudget(max_hom_size=1000))
    assert exc.value.needed == 4_950
    assert ((2, 0, 0), star(100)) not in built


class _LiftToThree(Functor):
    """Subsets that send every n >= 3 to 100, lifted to 3."""

    def __init__(self):
        super().__init__(subset_category(), subset_category())

    def obj(self, a):
        return 100 if a >= 3 else a

    def morph(self, f):
        return Morph(self.obj(f.dom), self.obj(f.cod), f.data)

    def frank_lift(self, a, b_prime):
        return 3


def test_frank_check_refuses_a_large_target_hom_before_building_it(
        monkeypatch):
    built = []
    hom = SubsetCategory.hom
    monkeypatch.setattr(SubsetCategory, "hom",
                        lambda self, a, b: built.append((a, b)) or hom(self, a, b))
    with pytest.raises(BudgetExceeded) as exc:
        check_frank_at(_LiftToThree(), 2, 100,
                       budget=SearchBudget(max_hom_size=10))
    assert str(exc.value) == "hom-set size: need 4950, cap 10 at hom(2, 100)"
    assert built == [(2, 3)]


def test_the_run_budget_is_defined_once_in_core():
    for name in ("SearchBudget", "BudgetExceeded", "require_hom_budget"):
        assert getattr(ramcat.engine, name) is getattr(ramcat.core, name)
    assert ramcat.SearchBudget is ramcat.core.SearchBudget
    assert ramcat.BudgetExceeded is ramcat.core.BudgetExceeded


def test_law_checker_hom_cap():
    cat = subset_category()
    with pytest.raises(BudgetExceeded) as exc:
        check_category_laws(cat, [3, 40], budget=SearchBudget(max_hom_size=100))
    assert str(exc.value) == "hom-set size: need 9880, cap 100 at hom(3, 40)"


def test_functor_law_checker_hom_cap():
    delta = subset_boundary()
    with pytest.raises(BudgetExceeded) as exc:
        check_functor_laws(delta, [2, 3], budget=SearchBudget(max_hom_size=2))
    assert str(exc.value) == "hom-set size: need 3, cap 2 at hom(2, 3)"
    # a hom-set of exactly the cap passes
    assert check_functor_laws(delta, [2, 3],
                              budget=SearchBudget(max_hom_size=3)).ok


# ---------------------------------------------------------------------------
# frankness checks


def test_frank_check_passes_on_subset_boundary():
    delta = subset_boundary()
    for a in range(4):
        for b_prime in range(5):
            res = check_frank_at(delta, a, b_prime)
            assert res.status == "pass", (a, b_prime)
            assert res.lifted == b_prime + 1


def test_frank_check_refuses_a_large_hom_before_building_it(monkeypatch):
    delta = subset_boundary()

    def no_hom(self, a, b):
        raise AssertionError("hom built before the size check")

    monkeypatch.setattr(type(delta.dom), "hom", no_hom)
    # hom(3, 41) has C(41, 3) = 10,660 arrows
    with pytest.raises(BudgetExceeded) as exc:
        check_frank_at(delta, 3, 40, budget=SearchBudget(max_hom_size=100))
    assert str(exc.value) == "hom-set size: need 10660, cap 100 at hom(3, 41)"


def test_frank_check_reads_the_fragment_a_category_sweep_leaves(monkeypatch):
    # trees<=5 and the nine lifts outside them, so every hom(a, lift) and
    # every target hom(F a, b') lies in the fragment of the category sweep
    fresh = tree_truncation()
    trees = tree_category().objects(23)
    pairs = [(a, fresh.obj(b)) for a in trees for b in trees]
    want = [check_frank_at(fresh, a, b_prime) for a, b_prime in pairs]
    lifts = [fresh.frank_lift(a, b_prime) for a, b_prime in pairs]
    objs = list(dict.fromkeys(trees + tuple(lifts)))
    assert len(objs) == 23 + 9
    cat = tree_category()
    assert check_category_laws(cat, objs).ok

    def no_hom(self, a, b):
        raise AssertionError(f"hom({a!r}, {b!r}) built past the fragment")

    monkeypatch.setattr(TreeCategory, "hom", no_hom)
    warm = tree_truncation(cat)
    assert [check_frank_at(warm, a, b_prime) for a, b_prime in pairs] == want
    assert {res.status for res in want} == {"pass"}


def test_a_warm_frank_check_refuses_as_a_fresh_one():
    budget = SearchBudget(max_hom_size=100)
    message = "hom-set size: need 10660, cap 100 at hom(3, 41)"
    # hom(3, 41) has C(41, 3) = 10,660 arrows: refused on a fresh handle,
    # and read from the fragment, though kept there, on a warm one
    for warm in (False, True):
        delta = subset_boundary()
        if warm:
            check_category_laws(delta.dom, [3, 41])
            assert len(delta.dom._kept.rows[3][41]) == 10_660
        with pytest.raises(BudgetExceeded) as exc:
            check_frank_at(delta, 3, 40, budget=budget)
        assert str(exc.value) == message
    # the target hom(2, 100) of _LiftToThree, kept on its codomain handle
    fun = _LiftToThree()
    check_category_laws(fun.cod, [2, 100])
    with pytest.raises(BudgetExceeded) as exc:
        check_frank_at(fun, 2, 100, budget=SearchBudget(max_hom_size=10))
    assert str(exc.value) == "hom-set size: need 4950, cap 10 at hom(2, 100)"


def test_a_warm_frank_check_still_refuses_a_non_object():
    # the category sweep refuses -1 too; a frank check on the store that a
    # sweep over 0..3 leaves refuses it as a fresh one does
    delta = subset_boundary()
    with pytest.raises(ValueError) as fresh:
        check_frank_at(delta, -1, 2)
    with pytest.raises(ValueError) as swept:
        check_category_laws(delta.dom, [-1, 0, 1, 2, 3])
    assert check_category_laws(delta.dom, [0, 1, 2, 3]).ok
    with pytest.raises(ValueError) as warm:
        check_frank_at(delta, -1, 2)
    assert (str(warm.value) == str(fresh.value) == str(swept.value)
            == "-1 is not an object of subset")


def test_law_sweeps_refuse_a_non_object():
    for sweep, subject in ((check_category_laws, subset_category()),
                           (check_functor_laws, subset_boundary())):
        with pytest.raises(ValueError,
                           match=r"^-1 is not an object of subset$"):
            sweep(subject, [-1, 2])


class _DropAbove(Functor):
    """Test stub on subsets: objects above 2 go to -1, no object; each arrow
    keeps its payload between the images of its endpoints."""

    def __init__(self, cat):
        super().__init__(cat, cat)

    def obj(self, a):
        return a if a <= 2 else -1

    def morph(self, f):
        return Morph(self.obj(f.dom), self.obj(f.cod), f.data)


@pytest.mark.parametrize("objs", [[1, 3], [3, 1]])
def test_functor_sweep_reports_an_image_that_is_no_object(monkeypatch, objs):
    # F 3 = -1: the images of hom(1, 3) lie in no hom-set, which the sweep
    # neither sizes nor builds; it reports them as the literal sweep does,
    # cold and warm.  Only these objects: past them, the literal sweep's
    # result depends on what SubsetCategory.hom returns for a non-object
    fun = _DropAbove(subset_category())
    want = brute_functor_laws(fun, objs)
    assert not want.ok and want.checked == 11
    assert sorted(want.violations) == [
        "morph(Morph(dom=1, cod=3, data=(1,))) outside hom of images",
        "morph(Morph(dom=1, cod=3, data=(2,))) outside hom of images",
        "morph(Morph(dom=1, cod=3, data=(3,))) outside hom of images",
        "obj(3) = -1 is not a codomain object"]
    met = []
    for name in ("hom", "hom_size"):
        method = getattr(SubsetCategory, name)
        monkeypatch.setattr(SubsetCategory, name,
                            lambda self, x, y, method=method:
                            met.append((x, y)) or method(self, x, y))
    assert check_functor_laws(fun, objs) == want
    check_category_laws(fun.dom, objs)
    assert check_functor_laws(fun, objs) == want
    assert met and all(-1 not in pair for pair in met)


def _benchmark_families():
    """The trees, R and P families of the benchmark's law workload, smaller:
    (category, functor, objects, frank sources and targets)."""
    tcat = tree_category()
    trees = tcat.objects(23)
    yield tcat, tree_truncation(tcat), trees, trees[:9]
    yield subset_category(), subset_boundary(), list(range(7)), list(range(7))
    for orientation in ORIENTATIONS:
        cat = StepCategory(orientation)
        objs = [(k, t) for k in (1, 2, 3) for t in (0, 1)
                if cat.is_object((k, t))] + [(l, 2) for l in range(1, 6)]
        yield cat, StepBoundary(cat), objs, objs


def test_sweeps_repeat_their_hom_calls_on_warm_handles(monkeypatch):
    # a traced benchmark pass runs twice on the same handles and requires
    # equal hom counts: only the category sweep leaves a store, and it puts
    # a fresh one in place of the last, so no pass starts warmer
    calls = Counter()
    for cls in (TreeCategory, SubsetCategory, StepCategory):
        for name in ("hom", "hom_size"):
            def counted(self, a, b, _name=name, _meth=getattr(cls, name)):
                calls[_name] += 1
                return _meth(self, a, b)
            monkeypatch.setattr(cls, name, counted)
    families = list(_benchmark_families())
    passes = []
    for _ in range(2):
        calls.clear()
        for cat, fun, objs, lifts in families:
            assert check_category_laws(cat, objs).ok
            assert check_functor_laws(fun, objs).ok
            assert {check_frank_at(fun, a, fun.obj(b)).status
                    for a in lifts for b in lifts} == {"pass"}
        passes.append(dict(calls))
    assert passes[0] == passes[1] and passes[0]["hom"] > 0
    # a functor sweep or frank check alone leaves no store on any handle
    for cat, fun, objs, lifts in _benchmark_families():
        check_functor_laws(fun, objs)
        check_frank_at(fun, lifts[0], fun.obj(lifts[-1]))
        assert "_kept" not in vars(cat)
        assert "_kept" not in vars(fun.dom) and "_kept" not in vars(fun.cod)


def test_frank_check_fails_on_wrong_lift():
    class _BadLift(type(subset_boundary())):
        def frank_lift(self, a, b_prime):
            return b_prime + 2  # wrong object entirely

    res = check_frank_at(_BadLift(), 1, 2)
    assert res.status == "fail"
    assert "obj" in res.detail


def test_frank_check_reports_missing_lift():
    cat = subset_category()
    res = check_frank_at(_Clamp(cat, 3), 1, 2)
    assert res.status == "no-lift"
    assert isinstance(res, FrankResult)


def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(5, 6) == 0
    assert binomial(5, -1) == 0


# ---------------------------------------------------------------------------
# package lifetime


REIMPORT = """
import contextlib, gc, io, sys, weakref
import ramcat
from ramcat import certificates, core
from ramcat.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["construct", "--theorem", "modeling", "--r", "2"])
refs = [weakref.ref(core.Category), weakref.ref(core.SearchBudget),
        weakref.ref(certificates.Trace)]
del ramcat, certificates, core, main
for name in [name for name in sys.modules if name.split(".")[0] == "ramcat"]:
    del sys.modules[name]
import ramcat
gc.collect()
print([ref() is None for ref in refs])
"""


def test_a_reimported_package_frees_the_old_one():
    # a module-level cache that holds a class (a typing alias over Functor,
    # say) keeps every dropped generation of the package alive
    src = str(Path(ramcat.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", REIMPORT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[True, True, True]\n"
