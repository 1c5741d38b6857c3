"""Independent small-scale oracles for everything the fast paths compute.

Each oracle here is a direct quantifier translation or a closed-form count,
written without the engine's cell indexing, image grouping or sampling, so a
bug in the production code path cannot hide in the oracle as well.  Expected
values are frozen where the oracle confirmed them.
"""

from itertools import combinations, permutations, product
from math import comb

import pytest

from ramcat import (FpInstance, binomial, check_p_witness, functor_image,
                    subset_boundary, subset_category)
from ramcat.categories import (StepCategory, WordCategory, product_functor,
                               standard_window, star, step_boundary,
                               tree_category)
from ramcat.categories.trees import height, structure
from ramcat.constructions import r_fp_witness
from brute import (brute_minimal_grid, brute_minimal_hj_dimension,
                   brute_minimal_single, rectangle_free_exists)
from ramcat.categories.pcat import StepBoundary
from ramcat.engine import check_fp_witness


# ---------------------------------------------------------------------------
# direct quantifier translations of the two conditions the engine checks


def brute_p_holds(delta, a, b, c, r):
    """Literal reading: every coloring admits g collapsing delta-equal arrows."""
    cat = delta.dom
    hom_ab, hom_bc, hom_ac = cat.hom(a, b), cat.hom(b, c), cat.hom(a, c)
    pairs = [(f1, f2) for f1 in hom_ab for f2 in hom_ab
             if delta.morph(f1) == delta.morph(f2)]
    for colors in product(range(r), repeat=len(hom_ac)):
        chi = dict(zip(hom_ac, colors))
        if not any(all(chi[cat.compose(g, f1)] == chi[cat.compose(g, f2)]
                       for f1, f2 in pairs)
                   for g in hom_bc):
            return False
    return True


def brute_fp_holds(delta, inst, c, f_prime, g_prime):
    """Literal reading of the fiber condition at one (c, f', g')."""
    cat, cod = delta.dom, delta.cod
    a, b, s, r = inst.a, inst.b, inst.s, inst.r
    hom_ac = cat.hom(a, c)
    fiber = [f for f in cat.hom(a, b) if delta.morph(f) == f_prime]
    good_g = [g for g in cat.hom(b, c)
              if all(cod.compose(delta.morph(g), e) == cod.compose(g_prime, e)
                     for e in s)]
    for colors in product(range(r), repeat=len(hom_ac)):
        chi = dict(zip(hom_ac, colors))
        if not any(len({chi[cat.compose(g, f)] for f in fiber}) <= 1
                   for g in good_g):
            return False
    return True


def test_engine_matches_brute_partition_check():
    delta = subset_boundary()
    for a, b in ((1, 2), (2, 3)):
        for c in range(b, 6):
            want = brute_p_holds(delta, a, b, c, 2)
            got = check_p_witness(delta, a, b, c, 2, mode="exhaustive")
            assert got.ok == want, (a, b, c)


def test_engine_matches_brute_partition_check_composite():
    from ramcat.core import compose_word
    delta = subset_boundary()
    dd = compose_word([delta, delta])
    for c in range(3, 6):
        want = brute_p_holds(dd, 2, 3, c, 2)
        got = check_p_witness(dd, 2, 3, c, 2, mode="exhaustive")
        assert got.ok == want, c
    # frozen: the two-step collapse needs one more point than the one-step
    assert not brute_p_holds(dd, 2, 3, 5, 2)


def test_engine_matches_brute_partition_check_products():
    rr = product_functor(subset_boundary(), subset_boundary())
    rp = product_functor(subset_boundary(), step_boundary())
    cases = ((rr, (1, 1), (1, 2), ((1, 2), (1, 3), (2, 2), (2, 3))),
             (rr, (1, 1), (2, 2), ((2, 2), (3, 3))),
             (rp, (1, (2, 1)), (1, (3, 2)), ((1, (3, 2)), (1, (4, 2)),
                                             (2, (4, 2)))),
             (rp, (1, (2, 1)), (2, (3, 2)), ((2, (4, 2)), (3, (4, 2)))))
    for fun, a, b, cs in cases:
        pack = fun.dom.pack
        for c in cs:
            args = (pack(a), pack(b), pack(c), 2)
            want = brute_p_holds(fun, *args)
            got = check_p_witness(fun, *args, mode="exhaustive")
            assert got.ok == want, (fun.name, a, b, c)
    # frozen: a copy of (1, 2) in (2, 2) fixes one row of the 2x2 grid, so
    # coloring every row with both colors defeats it; a row of three points
    # always repeats a color
    pack = rr.dom.pack
    assert not brute_p_holds(rr, pack((1, 1)), pack((1, 2)), pack((2, 2)), 2)
    assert brute_p_holds(rr, pack((1, 1)), pack((1, 2)), pack((2, 3)), 2)


def test_minimal_single_subset_witness_is_three():
    delta = subset_boundary()
    # hom(1, 2) has two arrows with equal image; collapsing them at two
    # colors is the two-color pigeonhole, so three points are needed
    assert not brute_p_holds(delta, 1, 2, 2, 2)
    assert brute_p_holds(delta, 1, 2, 3, 2)
    assert brute_minimal_single(1, 2, 2) == 3


def _prefix_selector(c):
    """g' for the (1, 2) instance retargeted at witness size c."""
    from ramcat.core import Morph
    return Morph(1, c - 1, (1,))


def test_engine_matches_brute_fiber_check():
    delta = subset_boundary()
    s = functor_image(delta, 1, 2)
    inst = FpInstance(a=1, b=2, s=s, r=2)
    c, f_prime, g_prime = r_fp_witness(inst, delta)
    assert c == 6
    assert brute_fp_holds(delta, inst, c, f_prime, g_prime)
    res = check_fp_witness(delta, inst, c, f_prime, g_prime, mode="exhaustive")
    assert res.ok
    # below the constructed size both agree on the verdict, whatever it is
    for smaller in (2, 3):
        want = brute_fp_holds(delta, inst, smaller, f_prime,
                              _prefix_selector(smaller))
        got = check_fp_witness(delta, inst, smaller, f_prime,
                               _prefix_selector(smaller), mode="exhaustive")
        assert got.ok == want


# ---------------------------------------------------------------------------
# hom-set counting oracles


def test_subset_hom_count_is_binomial():
    cat = subset_category()
    for m in range(5):
        for n in range(7):
            hom = cat.hom(m, n)
            assert len(hom) == comb(n, m) == binomial(n, m)
            assert len({f.data for f in hom}) == len(hom)


def _is_three_block(vals, left, right, k):
    l = len(vals)
    if l < 3 or vals[0] != left or vals[-1] != right:
        return False
    for a in range(1, l - 1):
        for m in range(1, l - a):
            t = l - a - m
            if t < 1:
                continue
            mid = vals[a]
            if (all(v == left for v in vals[:a])
                    and all(v == mid for v in vals[a:a + m])
                    and all(v == right for v in vals[a + m:])
                    and 1 <= mid <= k):
                return True
    return False


@pytest.mark.parametrize("orientation", ["definition", "mirror"])
def test_step_arrows_match_brute_filter(orientation):
    cat = StepCategory(orientation)
    for k, tag in ((1, 0), (2, 0), (2, 1), (3, 1)):
        if tag == 0:
            left = right = k
        elif orientation == "definition":
            left, right = k, k - 1
        else:
            left, right = k - 1, k
        for l in range(1, 6):
            got = {f.data for f in cat.hom((k, tag), (l, 2))}
            want = {vals for vals in product(range(1, k + 1), repeat=l)
                    if _is_three_block(vals, left, right, k)}
            assert got == want, (k, tag, l)


def test_step_arrow_counts_closed_form():
    cat = StepCategory()
    for k in range(1, 4):
        for l in range(3, 7):
            # one constant block plus a visible middle per non-endpoint value
            assert cat.hom_size((k, 0), (l, 2)) == 1 + (k - 1) * comb(l - 1, 2)
    for k1 in range(2, 5):
        for m in range(3, 7):
            assert (cat.hom_size((k1, 1), (m, 2))
                    == (m - 1) + (k1 - 2) * comb(m - 1, 2))
    assert cat.hom_size((2, 1), (4, 2)) == 3
    assert cat.hom((1, 0), (2, 2)) == ()
    assert [f.data for f in cat.hom((1, 0), (3, 2))] == [(1, 1, 1)]


def test_unit_step_surjections_match_brute_filter():
    cat = StepCategory()
    for l in range(1, 5):
        for m in range(l, 7):
            got = {f.data for f in cat.hom((l, 2), (m, 2))}
            want = set()
            for vals in product(range(1, l + 1), repeat=m):
                if set(vals) != set(range(1, l + 1)):
                    continue
                if all(vals[i] <= vals[i + 1] <= vals[i] + 1
                       for i in range(m - 1)):
                    want.add(vals)
            assert got == want, (l, m)
            assert len(got) == comb(m - 1, l - 1)


def test_word_hom_counts():
    cat = WordCategory(1)
    v0 = standard_window(1)
    for l in range(4):
        assert cat.hom_size(v0, ("L", l)) == 2 ** l
    for l1 in range(3):
        for l2 in range(4):
            got = cat.hom(("L", l1), ("L", l2))
            want = [vals for vals in product(range(-1, l1 + 1), repeat=l2)
                    if set(range(1, l1 + 1)) <= set(vals)]
            assert len(got) == len(want) == cat.hom_size(("L", l1), ("L", l2))
    assert cat.hom_size(("L", 1), ("L", 2)) == 5


# ---------------------------------------------------------------------------
# tree embedding oracle: filter all injective node maps


def brute_embeddings(s, t):
    chs, _, pars = structure(s)
    cht, _, part = structure(t)
    if height(s) != height(t):
        return set()
    out = set()
    for image in permutations(range(len(t)), len(s)):
        if image[0] != 0:
            continue
        ok = True
        for v in range(len(s)):
            kids = chs[v]
            tk = cht[image[v]]
            spots = []
            for u in kids:
                if image[u] not in tk:
                    ok = False
                    break
                spots.append(tk.index(image[u]))
            if not ok or spots != sorted(spots) or len(set(spots)) != len(spots):
                ok = False
                break
        if ok:
            out.add(image)
    return out


def test_tree_hom_matches_brute_embedding_filter():
    cat = tree_category()
    small = []
    for t in cat.iter_objects():
        if len(t) > 5:
            break
        small.append(t)
    for s in small:
        for t in small:
            got = {f.data for f in cat.hom(s, t)}
            assert got == brute_embeddings(s, t), (s, t)


def test_tree_hom_spot_values():
    cat = tree_category()
    assert cat.hom_size((1, 0), star(6)) == 6
    assert cat.hom_size((2, 0, 0), (3, 0, 0, 0)) == 3
    assert [f.data for f in cat.hom((1, 1, 0), (2, 1, 0, 0))] == [(0, 1, 2)]
    assert cat.hom((1, 0), (1, 1, 0)) == ()  # heights differ
    got = {f.data for f in cat.hom((2, 0, 0), (2, 1, 0, 0))}
    assert got == brute_embeddings((2, 0, 0), (2, 1, 0, 0))


# ---------------------------------------------------------------------------
# grid rectangles: full coloring enumeration versus the column search


def brute_rectangle_free(q, r):
    cells = q * q
    for idx in range(r ** cells):
        colors = [(idx // r ** j) % r for j in range(cells)]
        found = False
        for r1, r2 in combinations(range(q), 2):
            for c1, c2 in combinations(range(q), 2):
                quad = {colors[r1 * q + c1], colors[r1 * q + c2],
                        colors[r2 * q + c1], colors[r2 * q + c2]}
                if len(quad) == 1:
                    found = True
                    break
            if found:
                break
        if not found:
            return True
    return False


def test_rectangle_search_matches_full_enumeration():
    for q in (2, 3):
        for r in (1, 2):
            assert rectangle_free_exists(q, r) == brute_rectangle_free(q, r)
    assert rectangle_free_exists(4, 2) == brute_rectangle_free(4, 2) is True


def test_minimal_rectangle_grid_is_five():
    assert not rectangle_free_exists(5, 2)
    assert brute_minimal_grid(2) == 5
    assert brute_minimal_grid(1) == 2


# ---------------------------------------------------------------------------
# combinatorial lines over a two-letter alphabet, pair formulation


def two_letter_line_forced(m, r):
    """A line over {1,2} is a pointwise-comparable pair stepping 1 -> 2."""
    words = list(product((1, 2), repeat=m))
    lines = [(w1, w2) for w1 in words for w2 in words
             if w1 != w2 and all(a == b or (a, b) == (1, 2)
                                 for a, b in zip(w1, w2))]
    for colors in product(range(r), repeat=len(words)):
        chi = dict(zip(words, colors))
        if not any(chi[w1] == chi[w2] for w1, w2 in lines):
            return False
    return True


def test_minimal_line_dimension_alphabet_two():
    assert not two_letter_line_forced(1, 2)
    assert two_letter_line_forced(2, 2)
    assert brute_minimal_hj_dimension(2, 2) == 2
    assert brute_minimal_hj_dimension(2, 1) == 1
    assert brute_minimal_hj_dimension(3, 1) == 1


# ---------------------------------------------------------------------------
# the step pigeonhole, checked against the literal quantifier


@pytest.mark.parametrize("orientation", ["definition", "mirror"])
def test_step_pigeonhole_small_matches_brute(orientation):
    delta = StepBoundary(StepCategory(orientation))
    assert brute_p_holds(delta, (2, 1), (2, 2), (4, 2), 2)
    got = check_p_witness(delta, (2, 1), (2, 2), (4, 2), 2, mode="exhaustive")
    assert got.ok
