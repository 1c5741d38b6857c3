"""Canonical encoding, morphism plumbing, and the law/frankness checkers."""

import copy
import pickle
from collections import Counter

import pytest
from brute import brute_category_laws, brute_functor_laws

import ramcat
from ramcat import (BudgetExceeded, EncodingError, IdentityFunctor, LiftError,
                    Morph, SearchBudget, binomial, canon_bytes, canon_hex,
                    canon_parse, canon_unhex, check_category_laws,
                    check_functor_laws, check_frank_at, compose_functors,
                    compose_word, frank_pair, sort_morphs, subset_boundary,
                    subset_category)
from ramcat.categories import (ORIENTATIONS, ProductCategory, ProductFunctor,
                               StepBoundary, StepCategory, SubsetCategory,
                               TreeCategory, WordBoundary, star, tree_category,
                               tree_truncation, word_category)
from ramcat.core import (ComposedFunctor, Functor, FrankResult, LawReport,
                         _fragment)


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

    value = 2
    for _ in range(64):
        value = (value,)
    assert canon_parse(nested(64)) == value
    for depth in (65, 5000):
        with pytest.raises(EncodingError,
                           match="tuples nested deeper than 64 at offset 320"):
            canon_parse(nested(depth))


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
    dd = compose_functors(delta, delta)
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
            compose_functors(IdentityFunctor(foreign), delta)
        # a category always composes with its own handle
        ident = IdentityFunctor(foreign)
        assert compose_functors(ident, ident).dom is foreign
    # two handles of one registered category compose
    assert compose_functors(subset_boundary(), delta).obj(5) == 3


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


@pytest.mark.parametrize("fun, objs", _functor_fragments())
def test_functor_laws_match_the_literal_sweep(fun, objs):
    assert check_functor_laws(fun, objs) == brute_functor_laws(fun, objs)


@pytest.mark.parametrize("cat, objs, calls", [
    (subset_category(), list(range(7)), 1347),
    (tree_category(), tree_category().objects(23), 377)],
    ids=["R", "trees"])
def test_category_laws_compose_each_table_entry_once(monkeypatch, cat, objs,
                                                     calls):
    # 2 identity composites per arrow, then one per entry of one table per
    # object triple; the literal sweep makes 15,367 and 1,542
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
    assert [(a, list(row.items())) for a, row in
            _fragment(cat, objs, None).items()] == literal


def test_law_sweeps_size_hom_sets_only_within_a_grade(monkeypatch):
    sized = []
    hom_size = TreeCategory.hom_size
    monkeypatch.setattr(TreeCategory, "hom_size",
                        lambda self, a, b: sized.append((a, b))
                        or hom_size(self, a, b))
    cat = tree_category()
    trees = cat.objects(65)
    heights = Counter(map(cat.grade, trees))
    assert sorted(heights.items()) == [(0, 1), (1, 5), (2, 26), (3, 24),
                                       (4, 8), (5, 1)]
    calls = []
    for sweep, subject in ((check_category_laws, cat),
                           (check_functor_laws, tree_truncation(cat))):
        sized.clear()
        assert sweep(subject, trees).ok
        assert all(cat.grade(a) == cat.grade(b) for a, b in sized)
        calls.append(list(sized))
    laws, functor = calls
    # one call per pair of one grade: 1,343 of the 4,225 pairs; the functor
    # sweep also sizes each of its 55 codomain hom(F a, F b) once before
    # building it, and every such key is a domain pair too
    assert len(laws) == len(set(laws)) == 1_343
    assert len(functor) == 1_343 + 55 and set(functor) == set(laws)


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


def test_frank_pair_lands_on_the_requested_hom():
    from ramcat import functor_image
    delta = subset_boundary()
    c1, c2 = frank_pair(delta, 1, 2)
    assert (c1, c2) == (2, 3)
    assert delta.obj(c1) == 1 and delta.obj(c2) == 2
    image = functor_image(delta, c1, c2)
    target = delta.cod.hom(1, 2)
    assert set(image) == set(target)


def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(5, 6) == 0
    assert binomial(5, -1) == 0
