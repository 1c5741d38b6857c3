"""Structure of the shipped categories, their boundary functors, and lifts."""

import pickle
from collections import Counter
from itertools import product, takewhile

import pytest
from brute import brute_table, brute_tree_embeddings

from ramcat import (EncodingError, IdentityFunctor, LiftError, Morph,
                    check_category_laws, check_frank_at, check_functor_laws,
                    compose_word)
from ramcat.core import Category, sort_morphs
from ramcat.categories import trees as trees_module
from ramcat.categories import (ProductCategory, ProductFunctor, StepBoundary,
                               StepCategory, SubsetBoundary, SubsetCategory,
                               TreeCategory, TreeTruncation, WordBoundary,
                               WordCategory, grow, height, product_functor,
                               standard_window, star, step_boundary, structure,
                               subset_boundary, subset_category, tree_category,
                               tree_truncation, word_boundary, word_category)


# ---------------------------------------------------------------------------
# subsets


def test_subset_composition_frozen_example():
    cat = subset_category()
    f = Morph(2, 3, (1, 3))
    g = Morph(3, 5, (2, 4, 5))
    assert cat.compose(g, f) == Morph(2, 5, (2, 5))
    assert cat.compose(g, cat.identity(3)) == g
    with pytest.raises(ValueError):
        cat.compose(f, g)


def test_subset_boundary_images():
    delta = subset_boundary()
    assert delta.obj(0) == 0 and delta.obj(1) == 0 and delta.obj(5) == 4
    assert delta.morph(Morph(2, 5, (2, 5))) == Morph(1, 4, (2,))
    assert delta.morph(Morph(0, 3, ())) == Morph(0, 2, ())
    dd = __import__("ramcat").compose_word([delta, delta])
    assert dd.morph(Morph(2, 5, (2, 5))) == Morph(0, 3, ())


def test_subset_iteration_order_is_lexicographic():
    cat = subset_category()
    datas = [f.data for f in cat.hom(2, 4)]
    assert datas == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert datas == sorted(datas)


# ---------------------------------------------------------------------------
# step functions


@pytest.mark.parametrize("orientation", ["definition", "mirror"])
def test_step_laws_over_fragment(orientation):
    cat = StepCategory(orientation)
    objs = [(k, tag) for k in range(1, 4) for tag in (0, 1, 2)
            if cat.is_object((k, tag))] + [(l, 2) for l in range(4, 6)]
    rep = check_category_laws(cat, objs)
    assert rep.ok, rep.violations
    frep = check_functor_laws(StepBoundary(cat), objs)
    assert frep.ok, frep.violations


def test_step_objects():
    cat = StepCategory()
    assert cat.is_object((1, 0)) and cat.is_object((2, 1))
    assert not cat.is_object((1, 1))  # tag 1 needs k >= 2
    assert not cat.is_object((0, 0)) and not cat.is_object((1, 3))
    assert cat.objects(4) == ((1, 0), (1, 2), (2, 0), (2, 1))


def test_step_composition_pulls_values_backwards():
    cat = StepCategory()
    f = Morph((2, 1), (3, 2), (2, 2, 1))
    g = Morph((3, 2), (5, 2), (1, 1, 2, 3, 3))
    assert cat.compose(g, f) == Morph((2, 1), (5, 2), (2, 2, 2, 1, 1))


def test_step_boundary_caps_tag_one():
    delta = StepBoundary(StepCategory())
    assert delta.obj((3, 1)) == (2, 0)
    assert delta.obj((3, 0)) == (3, 0) and delta.obj((4, 2)) == (4, 2)
    f = Morph((3, 1), (4, 2), (3, 3, 2, 2))
    assert delta.morph(f) == Morph((2, 0), (4, 2), (2, 2, 2, 2))
    ident = delta.dom.identity((3, 1))
    assert delta.morph(ident) == delta.dom.identity((2, 0))


@pytest.mark.parametrize("orientation", ["definition", "mirror"])
def test_step_frank_lifts(orientation):
    delta = step_boundary(orientation)
    assert check_frank_at(delta, (3, 1), (2, 0)).status == "pass"
    assert check_frank_at(delta, (2, 0), (2, 0)).status == "pass"
    assert check_frank_at(delta, (2, 1), (4, 2)).status == "pass"
    assert check_frank_at(delta, (2, 2), (5, 2)).status == "pass"
    res = check_frank_at(delta, (2, 0), (2, 1))
    assert res.status == "no-lift"
    # no object maps onto a tag-1 target, so refusing the lift is right
    assert all(delta.obj(x) != (2, 1) for x in delta.dom.objects(60))


# ---------------------------------------------------------------------------
# words


def test_word_objects_and_windows():
    cat = word_category(1)
    assert cat.is_object(("L", 0)) and cat.is_object(("V", (2, 1)))
    assert not cat.is_object(("V", (1, 3)))  # not surjective onto [max]
    assert not cat.is_object(("V", (1, 2, 1)))  # wrong window length
    assert standard_window(2) == ("V", (1, 2, 3))
    assert cat.v_objects() == (("V", (1, 1)), ("V", (1, 2)), ("V", (2, 1)))
    v = ("V", (2, 1))
    assert cat.image(v) == 2
    assert cat.window_value(v, -1) == 2 and cat.window_value(v, 0) == 1
    assert cat.letter_position(v, 2) == -1
    with pytest.raises(ValueError):
        cat.letter_position(v, 3)


def test_word_composition_substitutes_through_window():
    cat = word_category(1)
    v = standard_window(1)
    f = Morph(v, ("L", 2), ("F", (1, 2)))
    g = Morph(("L", 2), ("L", 3), ("G", (0, 1, 2)))
    # position values <= 0 read the window, positive ones read f
    assert cat.compose(g, f) == Morph(v, ("L", 3), ("F", (2, 1, 2)))
    g2 = Morph(("L", 3), ("L", 2), ("G", (-1, 3)))
    comp = cat.compose(g2, cat.compose(g, f))
    assert comp == Morph(v, ("L", 2), ("F", (1, 2)))
    idv = cat.identity(v)
    assert cat.compose(f, idv) == f
    assert cat.compose(cat.identity(("L", 2)), f) == f


def test_word_laws_over_fragment():
    for k0 in (0, 1):
        cat = word_category(k0)
        objs = list(cat.v_objects()) + [("L", l) for l in range(3)]
        rep = check_category_laws(cat, objs)
        assert rep.ok, rep.violations
        frep = check_functor_laws(WordBoundary(cat), objs)
        assert frep.ok, frep.violations


def test_word_boundary_caps_letters():
    bound = word_boundary(1)
    assert bound.obj(("V", (1, 2))) == ("V", (1, 1))
    assert bound.obj(("V", (1, 1))) == ("V", (1, 1))
    assert bound.obj(("L", 3)) == ("L", 3)
    f = Morph(("V", (1, 2)), ("L", 3), ("F", (2, 1, 2)))
    assert bound.morph(f) == Morph(("V", (1, 1)), ("L", 3), ("F", (1, 1, 1)))
    idv = bound.dom.identity(("V", (1, 2)))
    assert bound.morph(idv) == bound.dom.identity(("V", (1, 1)))


def test_word_frank_lifts():
    bound = word_boundary(1)
    v0 = standard_window(1)
    assert check_frank_at(bound, v0, ("L", 2)).status == "pass"
    assert check_frank_at(bound, v0, ("V", (1, 1))).status == "pass"
    # the source is its own lift when it already projects onto the target
    assert bound.frank_lift(v0, ("V", (1, 1))) == v0
    res = check_frank_at(bound, v0, ("V", (1, 2)))
    assert res.status == "no-lift"
    assert all(bound.obj(v) != ("V", (1, 2)) for v in bound.dom.v_objects())


# ---------------------------------------------------------------------------
# trees


def test_tree_structure_helpers():
    ch, depth, parent = structure((2, 1, 0, 0))
    assert ch == [[1, 3], [2], [], []]
    assert depth == [0, 1, 2, 1]
    assert parent == [-1, 0, 1, 0]
    assert height((0,)) == 0 and height(star(3)) == 1
    assert height((1, 1, 0)) == 2
    assert star(2) == (2, 0, 0)
    assert grow((1, 0), {0: 2, 1: 1}) == (3, 1, 0, 0, 0)
    for bad in ((), (1,), (0, 0), (2, 0)):
        with pytest.raises(EncodingError):
            structure(bad)


def test_tree_structure_stays_fresh_and_validated_under_caching(monkeypatch):
    monkeypatch.setattr(trees_module, "_SHAPES", {})
    cat = tree_category()
    t, u = (2, 1, 0, 0), (3, 1, 0, 1, 0, 0)
    ch, depth, parent = structure(t)
    ch[0].append(3)
    ch.append([])
    depth[2] = 0
    parent.clear()
    assert structure(t) == ([[1, 3], [2], [], []], [0, 1, 2, 1],
                            [-1, 0, 1, 0])
    assert [f.data for f in cat.hom(t, u)] == [(0, 1, 2, 3), (0, 1, 2, 5),
                                               (0, 3, 4, 5)]
    assert tree_truncation(cat).obj(t) == (2, 0, 0)
    for bad in ([1, 0], (1, [0]), (), (2, 0)):
        with pytest.raises(EncodingError):
            structure(bad)
        assert not cat.is_object(bad)
        with pytest.raises(EncodingError):
            cat.hom(bad, (0,))


def test_tree_sweeps_compute_each_shape_once(monkeypatch):
    built = Counter()

    def counting_structure(t):
        built[t] += 1
        return structure(t)

    monkeypatch.setattr(trees_module, "_SHAPES", {})
    monkeypatch.setattr(trees_module, "structure", counting_structure)
    cat = tree_category()
    trees = cat.objects(65)             # every tree with at most 6 nodes
    assert len(trees[-1]) == 6
    assert check_category_laws(cat, trees).ok
    assert check_functor_laws(tree_truncation(cat), trees).ok
    assert set(built) == set(trees) and max(built.values()) == 1


def test_tree_shape_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(trees_module, "_SHAPES", {})
    monkeypatch.setattr(trees_module, "_MAX_SHAPES", 2)
    trees = tree_category().objects(9)
    assert [height(t) for t in trees] == [0, 1, 2, 1, 3, 2, 2, 2, 1]
    assert len(trees_module._SHAPES) <= 2


def test_tree_truncation_fixes_only_the_point():
    cat = tree_category()
    trunc = tree_truncation(cat)
    assert trunc.obj((0,)) == (0,)
    assert trunc.obj(star(4)) == (0,)
    assert trunc.obj((1, 1, 0)) == (1, 0)
    assert trunc.obj((2, 1, 0, 0)) == (2, 0, 0)
    seen = 0
    for t in cat.iter_objects():
        if len(t) > 6:
            break
        seen += 1
        if t != (0,):
            assert trunc.obj(t) != t
    assert seen == 65


def test_tree_morph_truncation_restricts_and_reindexes():
    trunc = tree_truncation()
    f = Morph((1, 1, 0), (2, 1, 0, 0), (0, 1, 2))
    assert trunc.morph(f) == Morph((1, 0), (2, 0, 0), (0, 1))
    ident = trunc.dom.identity((0,))
    assert trunc.morph(ident) == ident


def test_tree_frank_lifts():
    trunc = tree_truncation()
    assert check_frank_at(trunc, (1, 0), (2, 0, 0)).status == "pass"
    assert check_frank_at(trunc, (2, 0, 0), (2, 0, 0)).status == "pass"
    assert check_frank_at(trunc, (1, 1, 0), (1, 0)).status == "pass"
    assert check_frank_at(trunc, (0,), (0,)).status == "pass"
    # height gap of two: morphisms vanish on both sides, any preimage works
    assert check_frank_at(trunc, (1, 1, 0), (0,)).status == "pass"
    lifted = trunc.frank_lift((2, 0, 0), star(3))
    assert trunc.obj(lifted) == star(3)


def test_tree_laws_small_fragment():
    cat = tree_category()
    objs = []
    for t in cat.iter_objects():
        if len(t) > 5:
            break
        objs.append(t)
    rep = check_category_laws(cat, objs)
    assert rep.ok, rep.violations
    frep = check_functor_laws(tree_truncation(cat), objs)
    assert frep.ok, frep.violations


def test_tree_hom_size_counts_without_enumerating():
    cat = tree_category()
    objs = cat.objects(40)
    for a in objs:
        for b in objs:
            assert cat.hom_size(a, b) == len(cat.hom(a, b)), (a, b)
    assert cat.hom_size((3, 0, 0, 0), star(100)) == 161_700  # C(100, 3)


TREES_TO_6 = tree_category().objects(65)     # every tree with at most 6 nodes


def _brute_agrees(cat, a, b):
    want = brute_tree_embeddings(a, b)
    hom = cat.hom(a, b)
    assert [f.data for f in hom] == sorted(want), (a, b)
    assert hom == sort_morphs(hom), (a, b)      # canonical order
    assert all(f.dom == a and f.cod == b for f in hom), (a, b)
    assert cat.hom_size(a, b) == len(want), (a, b)


def test_tree_hom_matches_the_brute_embeddings():
    cat = tree_category()
    for a in TREES_TO_6:
        for b in TREES_TO_6:
            _brute_agrees(cat, a, b)
    for k in range(9):
        _brute_agrees(cat, (3, 0, 0, 0), star(k))
    assert cat.hom_size((3, 0, 0, 0), star(8)) == 56    # C(8, 3)
    # the Fouché hom-sets: wide stars, one node deep
    _brute_agrees(cat, (3, 0, 0, 0), star(27))
    _brute_agrees(cat, (2, 0, 0), star(27))
    assert cat.hom_size((3, 0, 0, 0), star(27)) == 2925  # C(27, 3)
    # three levels: four children, two grandchildren each, two leaves each
    wide = grow(star(4), {i: 2 for i in range(1, 5)})
    wide = grow(wide, {i: 2 for i, kids in enumerate(wide) if kids == 0})
    deep = (2, 1, 1, 0, 2, 1, 0, 1, 0)
    assert (height(wide), height(deep), len(wide)) == (3, 3, 29)
    _brute_agrees(cat, deep, wide)
    assert cat.hom_size(deep, wide) == 96


def test_tree_hom_is_empty_across_heights():
    cat = tree_category()
    trees = cat.objects(197)                    # every tree with at most 7 nodes
    assert len(trees[-1]) == 7 and len(cat.objects(198)[-1]) == 8
    for a in trees:
        ga = cat.grade(a)
        # the node count at each depth
        assert len(ga) == height(a) + 1 and sum(ga) == len(a)
        for b in trees:
            gb = cat.grade(b)
            # the grade contract: a non-empty hom needs equal-length grades,
            # the source's at most the target's entry by entry
            if cat.hom_size(a, b):
                assert len(ga) == len(gb), (a, b)
                assert all(x <= y for x, y in zip(ga, gb)), (a, b)
            if height(a) != height(b):
                assert cat.hom_size(a, b) == 0, (a, b)


def test_tree_memos_are_bounded(monkeypatch):
    monkeypatch.setattr(trees_module, "_SHAPES", {})
    monkeypatch.setattr(trees_module, "_COUNTS", {})
    monkeypatch.setattr(trees_module, "_PAYLOADS", {})
    monkeypatch.setattr(trees_module, "_held_payloads", 0)
    monkeypatch.setattr(trees_module, "_MAX_SHAPES", 6)
    cat = tree_category()
    hosts = TREES_TO_6[::3] + (star(5), (2, 2, 0, 0, 2, 0, 0))
    sizes = []
    for a in TREES_TO_6[:23]:               # every tree with at most 5 nodes
        for b in hosts:
            _brute_agrees(cat, a, b)
            held = sum(len(p) or 1 for p in trees_module._PAYLOADS.values())
            assert held == trees_module._held_payloads <= 6
            assert len(trees_module._COUNTS) <= 6
            sizes.append((len(trees_module._COUNTS), held))
    # both memos filled up and were cleared; results after a clear still match
    for seen in zip(*sizes):
        assert any(x > y for x, y in zip(seen, seen[1:]))
    # hom((2, 0, 0), star(5)) has 10 payloads, more than the memo may hold
    assert ((2, 0, 0), star(5)) not in trees_module._PAYLOADS


def test_tree_table_ranks_payloads_as_the_generic_table_composes():
    cat = tree_category()
    homs = {(a, b): cat.hom(a, b) for a in TREES_TO_6 for b in TREES_TO_6}
    triples = 0
    for a, b, c in product(TREES_TO_6, repeat=3):
        hab, hbc = homs[a, b], homs[b, c]
        if hab and hbc:
            triples += 1
            hac = homs[a, c]
            assert cat.table(hab, hbc, hac) == brute_table(cat, hab, hbc, hac)
    assert triples == 557
    a, b, c = (2, 0, 0), (3, 0, 0, 0), star(27)
    hab, hbc, hac = cat.hom(a, b), cat.hom(b, c), cat.hom(a, c)
    assert (len(hab), len(hbc), len(hac)) == (3, 2_925, 351)
    rows = cat.table(hab, hbc, hac)
    assert rows == brute_table(cat, hab, hbc, hac) == list(cat.action(a, b, c))
    # a composite outside the given hom-set is -1 in both
    assert cat.table(hab, hbc, hac[1:]) == brute_table(cat, hab, hbc, hac[1:])


def _table_fragments():
    yield pytest.param(subset_category(), list(range(6)), id="R")
    for orientation in ("definition", "mirror"):
        cat = StepCategory(orientation)
        yield pytest.param(cat, cat.objects(12), id=f"P:{orientation}")
    for k0 in (0, 1):
        hj = word_category(k0)
        yield pytest.param(hj, list(hj.v_objects())
                           + [("L", l) for l in range(4)], id=f"HJ:{k0}")
    rp = ProductCategory((subset_category(), StepCategory()))
    yield pytest.param(rp, [rp.pack((x, y)) for x in range(4)
                            for y in ((2, 0), (2, 1), (2, 2), (4, 2))],
                       id="RxP")
    hr = ProductCategory((word_category(1), subset_category()))
    yield pytest.param(hr, [hr.pack((x, y))
                            for x in (("V", (1, 2)), ("L", 0), ("L", 1),
                                      ("L", 2))
                            for y in (1, 2, 3)], id="HJ:1xR")


@pytest.mark.parametrize("cat, objs", _table_fragments())
def test_table_matches_the_literal_table(cat, objs):
    # every triple with hom(a, b) and hom(b, c) non-empty, and hom(a, c)
    # short of its first arrow, so that some composites fall outside
    homs = {(a, b): cat.hom(a, b) for a in objs for b in objs}
    triples = 0
    for a, b, c in product(objs, repeat=3):
        hab, hbc, hac = homs[a, b], homs[b, c], homs[a, c]
        if hab and hbc:
            triples += 1
            for given in (hac, hac[1:]):
                assert cat.table(hab, hbc, given) == \
                    brute_table(cat, hab, hbc, given), (a, b, c)
    assert triples > len(objs)


def _composition_fragments():
    yield from _table_fragments()
    yield pytest.param(tree_category(), TREES_TO_6[:23], id="trees<=5")


@pytest.mark.parametrize("cat, objs", _composition_fragments())
def test_compose_refuses_non_composable_pairs_and_types_composites(cat, objs):
    homs = {(a, b): cat.hom(a, b) for a in objs for b in objs}
    for a, b, c in product(objs, repeat=3):
        for f in homs[a, b]:
            for g in homs[b, c]:
                h = cat.compose(g, f)
                assert (h.dom, h.cod) == (a, c)
    # one arrow per non-empty hom-set, tried against every other such arrow
    firsts = [hom[0] for hom in homs.values() if hom]
    refused = 0
    for f in firsts:
        for g in firsts:
            if f.cod != g.dom:
                refused += 1
                with pytest.raises(ValueError) as exc:
                    cat.compose(g, f)
                assert str(exc.value).startswith(f"{cat.name}: "
                                                 "non-composable")
    assert refused > len(objs)


def test_tree_table_composes_through_an_overridden_compose():
    calls = []

    class Counted(TreeCategory):
        def compose_data(self, g, f):
            calls.append(1)
            return super().compose_data(g, f)

    cat, stock = Counted(), tree_category()
    a, b, c = (2, 0, 0), (3, 0, 0, 0), star(6)
    hab, hbc, hac = cat.hom(a, b), cat.hom(b, c), cat.hom(a, c)
    assert cat.table(hab, hbc, hac) == stock.table(hab, hbc, hac)
    assert len(calls) == len(hab) * len(hbc) == 3 * 20
    assert list(cat.action(a, b, c)) == list(stock.action(a, b, c))
    assert len(calls) == 2 * 3 * 20


@pytest.mark.parametrize("orientation", ["definition", "mirror"])
def test_step_hom_size_counts_without_enumerating(orientation):
    cat = StepCategory(orientation)
    objs = cat.objects(30)
    for a in objs:
        for b in objs:
            assert cat.hom_size(a, b) == len(cat.hom(a, b)), (a, b)
    assert cat.hom_size((3, 2), (200, 2)) == 19_701  # C(199, 2)


@pytest.mark.parametrize("k0", [0, 1, 2])
def test_word_hom_size_counts_without_enumerating(k0, monkeypatch):
    cat = word_category(k0)
    objs = list(cat.v_objects()) + [("L", l) for l in range(4)]
    sizes = {(a, b): len(cat.hom(a, b)) for a in objs for b in objs}
    monkeypatch.setattr(WordCategory, "hom", None)
    assert {pair: cat.hom_size(*pair) for pair in sizes} == sizes


# ---------------------------------------------------------------------------
# products


def test_product_pack_values_support():
    pcat = ProductCategory((subset_category(), subset_category()))
    a = pcat.pack((1, 2))
    assert a == ((0, 1), (1, 2))
    assert pcat.values(a) == (1, 2)
    assert pcat.is_object(a)
    with pytest.raises(ValueError, match="one object per factor required"):
        pcat.pack((1,))
    # an object holds one object per factor, indexed by its position
    for bad in (((1, 4),), ((0, 4),), ((1, 4), (0, 2)),
                ((0, 1), (1, 2), (2, 3)), (), ((0, 1), (2, 2)),
                ((0, 1), (1, -1)), ((0, 1), (1.0, 2)), ((0, 1), (1,)),
                ((0, 1), [1, 2]), [(0, 1), (1, 2)], 3):
        assert not pcat.is_object(bad), bad


def test_product_hom_respects_support():
    # every coordinate is read: one empty factor hom-set empties the product
    pcat = ProductCategory((subset_category(), subset_category()))
    full, other = pcat.pack((1, 1)), pcat.pack((2, 3))
    assert pcat.hom_size(full, other) == 2 * 3
    assert len(pcat.hom(full, other)) == 6
    assert pcat.hom(other, full) == () and pcat.hom_size(other, full) == 0
    assert pcat.hom(pcat.pack((1, 3)), pcat.pack((2, 2))) == ()
    assert pcat.hom_size(pcat.pack((1, 3)), pcat.pack((2, 2))) == 0


def test_product_compose_and_identity():
    pcat = ProductCategory((subset_category(), subset_category()))
    a, b, c = pcat.pack((1, 1)), pcat.pack((2, 2)), pcat.pack((4, 3))
    f = Morph(a, b, ((2,), (1,)))
    g = Morph(b, c, ((1, 4), (2, 3)))
    assert pcat.compose(g, f) == Morph(a, c, ((4,), (2,)))
    assert pcat.compose(g, pcat.identity(b)) == g
    assert pcat.component(g, 1) == Morph(2, 3, (2, 3))


def test_product_functor_and_lift():
    fun = product_functor(subset_boundary(), subset_boundary())
    pcat = fun.dom
    a, b = pcat.pack((1, 2)), pcat.pack((2, 3))
    assert fun.obj(b) == pcat.pack((1, 2))
    f = Morph(a, b, ((2,), (1, 3)))
    assert fun.morph(f) == Morph(pcat.pack((0, 1)), pcat.pack((1, 2)),
                                 ((), (1,)))
    assert fun.frank_lift(a, pcat.pack((2, 2))) == pcat.pack((3, 3))
    res = check_frank_at(fun, a, pcat.pack((1, 1)))
    assert res.status == "pass"


def test_product_laws_binary_fragments():
    rr = ProductCategory((subset_category(), subset_category()))
    objs = [rr.pack(v) for v in ((0, 0), (1, 1), (1, 2), (2, 2), (2, 3))]
    rep = check_category_laws(rr, objs)
    assert rep.ok, rep.violations
    fun = product_functor(subset_boundary(), subset_boundary())
    frep = check_functor_laws(fun, objs)
    assert frep.ok, frep.violations

    rp = ProductCategory((subset_category(), StepCategory()))
    objs2 = [rp.pack(v) for v in ((1, (2, 1)), (2, (3, 2)), (2, (4, 2)),
                                  (3, (4, 2)))]
    rep2 = check_category_laws(rp, objs2)
    assert rep2.ok, rep2.violations
    fun2 = product_functor(subset_boundary(), step_boundary())
    frep2 = check_functor_laws(fun2, objs2)
    assert frep2.ok, frep2.violations


# one small fragment per factor kind, with hom-sets of several arrows and
# payloads of different encoded widths
_FACTOR_FRAGMENTS = (
    (subset_category(), (0, 1, 2, 3)),
    (StepCategory(), ((2, 1), (2, 2), (3, 2), (4, 2))),
    (word_category(1), (("V", (1, 2)), ("L", 0), ("L", 1), ("L", 2))),
    (tree_category(), ((0,), (1, 0), (2, 0, 0), (3, 0, 0, 0))),
)


def test_product_hom_is_canonical_without_sorting():
    # the action table's mixed-radix indices rely on this order
    for (c1, objs1), (c2, objs2) in product(_FACTOR_FRAGMENTS, repeat=2):
        pcat = ProductCategory((c1, c2))
        objs = [pcat.pack(v) for v in product(objs1, objs2)]
        for a in objs:
            for b in objs:
                hom = pcat.hom(a, b)
                assert hom == sort_morphs(hom), (pcat.name, a, b)


# wider single-category fragments: hom-sets that sort their payload tuples
# directly, or take their generator's order, must still come out in canonical
# order, and as many as hom_size counts
_STEP_OBJECTS = tuple((k, tag) for k in range(1, 6) for tag in (0, 1, 2)
                      if StepCategory().is_object((k, tag)))
_SINGLE_FRAGMENTS = [
    pytest.param(subset_category(), tuple(range(6)), id="subset"),
    pytest.param(tree_category(),
                 tuple(takewhile(lambda t: len(t) <= 6,
                                 tree_category().iter_objects())),
                 id="trees-to-6-nodes"),
    *(pytest.param(StepCategory(o), _STEP_OBJECTS, id=f"step-{o}")
      for o in ("definition", "mirror")),
    *(pytest.param(word_category(k0), word_category(k0).v_objects()
                   + tuple(("L", l) for l in range(5)), id=f"word-{k0}")
      for k0 in (0, 1)),
]


@pytest.mark.parametrize("cat, objs", _SINGLE_FRAGMENTS)
def test_single_category_hom_is_canonical_and_counted(cat, objs):
    for a in objs:
        for b in objs:
            hom = cat.hom(a, b)
            assert hom == sort_morphs(hom), (cat.name, a, b)
            assert len(hom) == cat.hom_size(a, b), (cat.name, a, b)


def test_product_action_matches_generic_action(monkeypatch):
    rpr = ProductCategory((subset_category(), StepCategory(),
                           subset_category()))
    a, b, c = (rpr.pack((1, (2, 1), 0)), rpr.pack((2, (3, 2), 1)),
               rpr.pack((3, (5, 2), 2)))
    cases = {
        "nonempty": (a, b, c),
        "empty factor hom(a, b)": (a, rpr.pack((0, (3, 2), 1)), c),
        "empty factor hom(b, c)": (a, b, rpr.pack((1, (5, 2), 2))),
    }
    expected = {name: list(Category.action(rpr, *objs))
                for name, objs in cases.items()}
    # the product streams mixed-radix sums of its factors' tables and never
    # composes through the generic path itself; a factor still may
    generic, callers = Category.action, []

    def recorded(self, x, y, z):
        callers.append(self)
        return generic(self, x, y, z)

    monkeypatch.setattr(Category, "action", recorded)
    for name, (x, y, z) in cases.items():
        rows = list(rpr.action(x, y, z))
        assert rows == expected[name], name
        assert len(rows) == rpr.hom_size(y, z), name
    assert rpr not in callers and rpr.factors[1] in callers
    assert len(list(rpr.action(a, b, c))[0]) == 2 * 2 * 1
    assert not isinstance(rpr.action(a, b, c), list)


@pytest.mark.parametrize("a, b, c", [
    (0, 0, 0), (0, 3, 0), (1, 0, 0), (0, 2, 5), (2, 2, 5), (2, 5, 5),
    (3, 2, 5), (2, 6, 4), (1, 3, 6), (2, 3, 27), (2, 4, 17), (2, 3, 16)])
def test_subset_action_matches_generic_action(a, b, c):
    cat = subset_category()
    assert cat.action(a, b, c) == Category.action(cat, a, b, c)


def test_subset_action_composes_only_through_an_override(monkeypatch):
    calls = []
    real = SubsetCategory.compose_data

    def counted(self, g, f):
        calls.append(1)
        return real(self, g, f)

    # the class's own compose_data, wrapped in place as a tracer wraps a
    # method, stays closed form
    monkeypatch.setattr(SubsetCategory, "compose_data", counted)
    rows = subset_category().action(2, 3, 27)
    assert len(rows) == 2925 and calls == []

    class Overriding(SubsetCategory):
        def compose_data(self, g, f):
            return super().compose_data(g, f)

    assert Overriding().action(2, 3, 27) == rows
    assert len(calls) == 2925 * 3


def test_product_iter_objects_streams_full_support():
    pcat = ProductCategory((subset_category(), subset_category()))
    first = pcat.objects(6)
    assert pcat.pack((0, 0)) in first
    assert all(pcat.is_object(a) for a in first)
    assert len(set(first)) == 6


# ---------------------------------------------------------------------------
# registry specs round-trip through the certificate builders


def test_specs_rebuild_identically():
    from ramcat.certificates import build_category, build_functor
    cats = [subset_category(), StepCategory("mirror"), word_category(2),
            tree_category(),
            ProductCategory((subset_category(), subset_category()))]
    for cat in cats:
        assert build_category(cat.spec()).spec() == cat.spec()
    funs = [subset_boundary(), StepBoundary(StepCategory("mirror")),
            word_boundary(1), tree_truncation(),
            product_functor(subset_boundary(), subset_boundary())]
    for fun in funs:
        assert build_functor(fun.spec()).spec() == fun.spec()


def test_selectable_categories_and_functors_pickle():
    # a check over several jobs ships its category to the workers by pickle
    from ramcat.certificates import build_category, build_functor
    from ramcat.cli import category_handle
    objs = []
    for selector in ("R", "P", "P:mirror", "HJ", "HJ:2", "trees"):
        cat, tokens, _ = category_handle(selector)
        (delta,) = tokens.values()
        objs += [cat, delta, compose_word([delta, delta]), IdentityFunctor(cat),
                 ProductCategory((cat, cat)), product_functor(delta, delta)]
    built = [build_category(o.spec()) if isinstance(o, Category)
             else build_functor(o.spec()) for o in objs]
    for obj in objs + built:
        assert pickle.loads(pickle.dumps(obj)).spec() == obj.spec()
