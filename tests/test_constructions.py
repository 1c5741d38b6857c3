"""Witness constructions: staged recursions, products, modeling transfer."""

from collections import Counter

import pytest

from ramcat import (BudgetExceeded, Category, ConstructionError, CrossRelation,
                    Functor, LiftError, Morph, FpInstance, SearchBudget,
                    check_category_laws, check_cross_welldefined,
                    check_frank_at, check_functor_laws,
                    check_cross_zeta, check_modeling_compatibility,
                    check_p_witness, fouche_witness,
                    fp_to_p_construct, fp_provider, hj_modeling, hj_witness,
                    identity_modeling, modeling_transfer,
                    p_pigeonhole_witness,
                    product_ramsey_numbers, r_fp_witness, star,
                    subset_boundary, subset_category, tree_fp_witness,
                    tree_truncation, word_boundary, word_witness)
from ramcat import constructions as constructions_module
from ramcat.categories import (ProductCategory, ProductFunctor, SubsetBoundary,
                               SubsetCategory, step_boundary, structure)
from ramcat.categories import trees as trees_module
from ramcat.constructions import (CONSTRUCTED, pigeonhole_provider,
                                  product_witness, r_fp_oracle,
                                  r_modeling_transfer)
from brute import (brute_minimal_grid, brute_minimal_hj_dimension,
                   brute_minimal_single, rectangle_free_exists)

DR = subset_boundary()


# ---------------------------------------------------------------------------
# pigeonhole


def test_pigeonhole_witness_values():
    assert p_pigeonhole_witness(2, 2, 2) == (4, 2)
    assert p_pigeonhole_witness(2, 3, 2) == (6, 2)
    assert p_pigeonhole_witness(3, 2, 3) == (5, 2)
    for bad in ((1, 2, 2), (2, 0, 2), (2, 2, 0)):
        with pytest.raises(ValueError):
            p_pigeonhole_witness(*bad)


def test_pigeonhole_provider_constructs_verified_witnesses():
    dp = step_boundary("definition")
    c, note = pigeonhole_provider(dp, (2, 1), (3, 2), 2)
    assert c == (6, 2) and note is None
    res = check_p_witness(dp, (2, 1), (3, 2), c, 2)
    assert res.ok and res.exhaustive
    with pytest.raises(ValueError):
        pigeonhole_provider(dp, (2, 1), (3, 1), 2)


# ---------------------------------------------------------------------------
# fiber-condition oracle and recursion over subsets


def test_fiber_oracle_frozen_values():
    inst = FpInstance(1, 2, (Morph(0, 1, ()),), 2)
    assert r_fp_witness(inst) == (6, Morph(0, 1, ()), Morph(1, 5, (1,)))
    s = (Morph(1, 2, (1,)), Morph(1, 2, (2,)))
    inst2 = FpInstance(2, 3, s, 2)
    c, f_prime, g_prime = r_fp_witness(inst2)
    assert c == 9
    assert f_prime == Morph(1, 2, (2,))  # largest payload maximum wins
    assert g_prime == Morph(2, 8, (1, 2))
    # a single-arrow hom is already monochromatic: stay at b
    triv = FpInstance(2, 2, (Morph(1, 1, (1,)),), 2)
    assert r_fp_witness(triv) == (2, Morph(1, 1, (1,)), Morph(1, 1, (1,)))
    with pytest.raises(ValueError):
        r_fp_witness(FpInstance(1, 2, (), 2))
    with pytest.raises(ValueError):
        r_fp_witness(FpInstance(1, 2, (Morph(0, 1, ()),), 0))


def test_fiber_recursion_small_pair():
    c, trace = fp_to_p_construct(DR, 1, 2, 2, r_fp_oracle())
    assert c == 6 and len(trace.stages) == 1
    st = trace.stages[0]
    assert (st.c_prev, st.c_next) == (2, 6)
    assert st.g == Morph(1, 5, (1,))
    res = check_p_witness(DR, 1, 2, 6, 2)
    assert res.ok and res.exhaustive


def test_fiber_recursion_two_stages():
    c, trace = fp_to_p_construct(DR, 2, 3, 2, r_fp_oracle())
    assert c == 27 and len(trace.stages) == 2
    assert [st.c_next for st in trace.stages] == [9, 27]
    assert trace.stages[0].picked == Morph(1, 2, (2,))
    assert trace.stages[1].g == Morph(8, 26, (1, 2, 3, 4, 5, 6, 7, 8))
    # the picks exhaust the image in distinct origins
    origins = {st.origin.encode() for st in trace.stages}
    assert len(origins) == 2


def test_fiber_recursion_empty_hom():
    c, trace = fp_to_p_construct(DR, 2, 1, 2, r_fp_oracle())
    assert c == 1 and len(trace.stages) == 0 and trace.stages == ()


def test_fiber_recursion_checks_each_stage_before_its_oracle():
    asked = []

    def oracle(inst):
        asked.append(inst.b)
        return r_fp_witness(inst, DR)

    with pytest.raises(BudgetExceeded) as exc:
        fp_to_p_construct(DR, 2, 40, 2, oracle,
                          budget=SearchBudget(max_hom_size=10_000))
    # |hom(2, c)|: 780 and 7,140 pass the cap, 64,620 at c = 360 does not
    assert asked == [40, 120]
    assert (exc.value.needed, exc.value.cap) == (64_620, 10_000)


def test_fiber_recursion_pushes_each_copy_once(monkeypatch):
    calls = []
    compose = SubsetCategory.compose

    def counting(self, g, f):
        calls.append((g, f))
        return compose(self, g, f)

    monkeypatch.setattr(SubsetCategory, "compose", counting)
    c, trace = fp_to_p_construct(DR, 2, 4, 2, r_fp_oracle())
    # stage k advances the n - k unhandled copies by one composite each
    n = len(trace.stages)
    assert (c, n) == (108, 3) and len(calls) == n * (n - 1) // 2


def test_fiber_recursion_rejects_wayward_oracle():
    def liar(inst):
        return 6, Morph(1, inst.b - 1, (9,)), Morph(inst.b - 1, 5, (1,))

    with pytest.raises(ConstructionError, match="outside the admissible set"):
        fp_to_p_construct(DR, 1, 2, 2, liar)


def test_fp_provider_notes_the_recursion_trace():
    wit = fp_provider(r_fp_oracle)
    c, note = wit(DR, 1, 2, 2)
    assert c == 6
    assert note == fp_to_p_construct(DR, 1, 2, 2, r_fp_oracle())[1]
    assert note.selection == "oracle-defined"


# ---------------------------------------------------------------------------
# composition along functor words


def test_composition_witness_matches_word_recursion():
    # the two-functor word is the composition step: the inner stage's d is
    # lifted to c' = b, where the outer stage builds c
    seen = []

    def record(fun, a, b, r):
        seen.append((a, b))
        c = fp_to_p_construct(fun, a, b, r, r_fp_oracle())[0]
        return c, {"at": [a, b]}

    c, wt = word_witness([DR, DR], 1, 2, 2, record)
    assert c == 6 and len(wt.stages) == 2
    assert seen == [(0, 1), (1, 2)]       # inner stage first
    outer, inner = wt.stages
    assert outer.b == 2 and outer.witness == 6 and outer.lifted_from == 1
    assert inner.a == 0 and inner.witness == 1 and inner.lifted_from is None
    assert [st.note["at"] for st in wt.stages] == [[1, 2], [0, 1]]
    c2, _ = word_witness([DR, DR], 1, 2, 2, fp_provider(r_fp_oracle))
    assert c2 == c
    with pytest.raises(ValueError):
        word_witness([], 1, 2, 2, fp_provider(r_fp_oracle))


# ---------------------------------------------------------------------------
# products


def test_product_single_coordinate_trivial():
    c_vals, trace = product_ramsey_numbers((2,), (2,), 2)
    assert c_vals == (2,)
    assert trace.stages[0].m_exponent == 1


def test_product_two_coordinates_frozen():
    c_vals, trace = product_ramsey_numbers((1, 1), (2, 2), 2)
    assert c_vals == (130, 6)
    first, second = trace.stages
    assert first.m_exponent == 6 and first.witness == 130
    assert second.m_exponent == 1 and second.witness == 6
    assert first.provenance == CONSTRUCTED
    assert trace.b_values == (2, 2)


def test_product_witness_packs_the_staged_product():
    fun = ProductFunctor((DR, DR))
    pack = fun.dom.pack
    c, note = product_witness(fun, pack((1, 1)), pack((2, 2)), 2,
                              fp_provider(r_fp_oracle))
    assert c == pack((130, 6))
    _, trace = product_ramsey_numbers((1, 1), (2, 2), 2)
    assert note == trace


def test_product_validations_and_budget():
    with pytest.raises(ValueError):
        product_ramsey_numbers((3,), (2,), 2)
    with pytest.raises(ValueError):
        product_ramsey_numbers((1, 1), (2,), 2)
    with pytest.raises(ValueError):
        product_ramsey_numbers((), (), 2)
    with pytest.raises(BudgetExceeded) as exc:
        product_ramsey_numbers((1, 1), (2, 2), 2,
                               budget=SearchBudget(max_color_bits=3))
    assert "color bits" in exc.value.quantity
    fun = ProductFunctor((DR, DR))
    pack = fun.dom.pack
    prov = fp_provider(r_fp_oracle)
    with pytest.raises(ValueError, match="need at least one color"):
        product_witness(fun, pack((1, 1)), pack((2, 2)), 0, prov)
    # a partly supported object, as pack refuses it
    for a, b in ((((0, 1),), pack((2, 2))), (pack((1, 1)), ((1, 2),)),
                 (pack((1, 1)), ())):
        with pytest.raises(ValueError, match="one object per factor required"):
            product_witness(fun, a, b, 2, prov)


class _Signed(Category):
    """Subset arrows, each paired with a sign in Z/2 that composition adds:
    every hom-set has twice the arrows of the subset category's."""

    name = "signed-subset"
    base = SubsetCategory()

    def is_object(self, a):
        return self.base.is_object(a)

    def iter_objects(self):
        return self.base.iter_objects()

    def hom(self, a, b):
        return tuple(Morph(a, b, (sign, f.data)) for sign in (0, 1)
                     for f in self.base.hom(a, b))

    def identity(self, a):
        return Morph(a, a, (0, self.base.identity(a).data))

    def compose_data(self, g, f):
        (s, y), (t, x) = g.data, f.data
        return ((s + t) % 2, self.base.compose_data(Morph(g.dom, g.cod, y),
                                                    Morph(f.dom, f.cod, x)))


class _Unsign(Functor):
    """Forgets the sign: identity on objects, from _Signed onto subsets."""

    name = "unsign"

    def __init__(self):
        super().__init__(_Signed(), subset_category())

    def obj(self, a):
        return a

    def morph(self, f):
        return Morph(f.dom, f.cod, f.data[1])

    def frank_lift(self, a, b_prime):
        return b_prime


def test_product_stages_size_hom_sets_in_their_own_categories():
    # _Unsign is a frank functor between categories
    objs = [0, 1, 2, 3]
    assert check_category_laws(_Signed(), objs).ok
    assert check_functor_laws(_Unsign(), objs).ok
    assert all(check_frank_at(_Unsign(), a, b).status == "pass"
               for a in objs for b in objs)
    # stage p's category has parts[i].cod at coordinates i < p and
    # parts[i].dom at i > p; _Signed doubles every subset hom-set, so each
    # exponent shows which category sized it
    fun = ProductFunctor((_Unsign(), _Unsign()))
    calls = []

    def stub(part, x, y, r):
        # y itself: the exponents, not the witnesses, are under test
        calls.append((x, y, r))
        return y, None

    pack = fun.dom.pack
    c, trace = product_witness(fun, pack((1, 1)), pack((2, 3)), 2, stub)
    # coordinate 1, staged first, sizes coordinate 0 in the codomain: C(2, 1);
    # coordinate 0 sizes coordinate 1 in the domain: 2 * C(3, 1)
    assert [stage.m_exponent for stage in trace.stages] == [6, 2]
    assert calls == [(1, 3, 2 ** 2), (1, 2, 2 ** 6)]
    assert c == pack((2, 3))


class _Liftless(SubsetBoundary):
    """The subset boundary with its lift oracle taken away."""

    def frank_lift(self, a, b_prime):
        raise LiftError(f"no lift over {b_prime!r}")


def test_stage_failures_name_their_stage():
    def refuse(fun, a, b, r):
        raise ValueError(f"no witness at {(a, b, r)!r}")

    one = ProductFunctor((DR,))
    with pytest.raises(ConstructionError) as exc:
        product_witness(one, one.dom.pack((1,)), one.dom.pack((2,)), 2,
                        refuse)
    assert str(exc.value) == "coordinate 0 provider: no witness at (1, 2, 2)"
    # a product lifts between its coordinate stages as a word lifts between
    # its stages: the inner stage's witness 1 has no lift through _Liftless
    two = ProductFunctor((_Liftless(), DR))
    with pytest.raises(ConstructionError) as exc:
        product_witness(two, two.dom.pack((1, 1)), two.dom.pack((2, 2)), 2,
                        fp_provider(r_fp_oracle))
    assert str(exc.value) == "lift between stages: no lift over 1"
    with pytest.raises(ConstructionError) as exc:
        word_witness([_Liftless(), DR], 1, 2, 2, fp_provider(r_fp_oracle))
    assert str(exc.value) == "lift between stages: no lift over 1"


# ---------------------------------------------------------------------------
# brute-force minima


def test_brute_minima():
    assert brute_minimal_single(1, 2, 2) == 3
    assert brute_minimal_single(2, 3, 2) == 4
    assert brute_minimal_single(2, 3, 2, cap=3) is None
    assert rectangle_free_exists(4, 2)
    assert not rectangle_free_exists(5, 2)
    assert brute_minimal_grid(1) == 2
    assert brute_minimal_grid(2) == 5
    assert brute_minimal_hj_dimension(2, 2) == 2
    assert brute_minimal_hj_dimension(2, 1) == 1
    assert brute_minimal_hj_dimension(3, 1) == 1


# ---------------------------------------------------------------------------
# cross-category modeling


def test_identity_modeling_passes_all_checks():
    cat = subset_category()
    rel = identity_modeling(cat, 1, 2, 4)
    assert check_cross_zeta(rel).ok
    assert check_cross_welldefined(rel).ok
    assert check_modeling_compatibility(rel, DR, DR).ok


def test_zeta_requires_data():
    cat = subset_category()
    rel = identity_modeling(cat, 1, 2, 4)
    stripped = CrossRelation(rel.c1, rel.c2, rel.c3, rel.d1, rel.d2, rel.d3,
                             rel.c_cat, rel.d_cat, rel.phi, rel.psi,
                             zeta=None, phi_depends_on_g=False)
    with pytest.raises(ValueError):
        check_cross_zeta(stripped)
    assert check_cross_welldefined(stripped).ok


def test_broken_zeta_is_reported():
    cat = subset_category()
    rel = identity_modeling(cat, 1, 2, 4)
    broken = CrossRelation(rel.c1, rel.c2, rel.c3, rel.d1, rel.d2, rel.d3,
                           rel.c_cat, rel.d_cat, rel.phi, rel.psi,
                           zeta=lambda h: Morph(1, 4, (4,)),
                           phi_depends_on_g=False)
    chk = check_cross_zeta(broken)
    assert not chk.ok and "zeta identity fails" in chk.violation


def test_welldefined_catches_collapsing_phi():
    cat = subset_category()
    # phi forgets f entirely while psi keeps it alive: equal d-composites
    # now carry distinct transfers
    rel = CrossRelation(1, 2, 4, 1, 2, 4, cat, cat,
                        phi=lambda f, g: Morph(1, 2, (1,)),
                        psi=lambda g: g, zeta=None)
    chk = check_cross_welldefined(rel)
    assert not chk.ok and "well-definedness fails" in chk.violation


def test_relation_sweeps_compose_only_the_pairs_they_check(monkeypatch):
    calls = []
    compose = ProductCategory.compose

    def counted(self, g, f):
        calls.append(1)
        return compose(self, g, f)

    monkeypatch.setattr(ProductCategory, "compose", counted)
    rel = hj_modeling(("V", (1, 2)), 2, ((12, 2), (12, 2)))
    for check in (check_cross_zeta, check_cross_welldefined):
        calls.clear()
        chk = check(rel, budget=SearchBudget(max_pairs=1))
        assert chk.ok and chk.partial and chk.checked == 1
        assert len(calls) <= 1, check.__name__


def test_degree_transfer_needs_zeta():
    cat = subset_category()
    provider = lambda d1, d2, r: (6, 1)
    good = lambda d3: identity_modeling(cat, 1, 2, d3)
    c3, k, chk = r_modeling_transfer(good, provider, 1, 2, 2)
    assert c3 == 6 and k == 1 and chk.ok
    bare = lambda d3: CrossRelation(1, 2, d3, 1, 2, d3, cat, cat,
                                    phi=lambda f, g: f,
                                    psi=lambda g: g, zeta=None)
    with pytest.raises(ConstructionError, match="zeta"):
        r_modeling_transfer(bare, provider, 1, 2, 2)


def test_degree_transfer_sweeps_under_the_budget():
    cat = subset_category()
    good = lambda d3: identity_modeling(cat, 1, 2, d3)
    _, _, chk = r_modeling_transfer(good, lambda d1, d2, r: (6, 1), 1, 2, 2,
                                    budget=SearchBudget(max_pairs=1))
    # 2 x 15 pairs in hom(1, 2) x hom(2, 6); one is tested
    assert chk.ok and chk.partial and chk.checked == 1


def _fixed_witness(d3):
    return lambda fun, a, b, r: (d3, None)


def test_transfers_read_c3_from_the_relation():
    cat = subset_category()
    rel = CrossRelation(1, 2, 7, 1, 2, 6, cat, cat, phi=lambda f, g: f,
                        psi=lambda g: Morph(2, 7, g.data),
                        zeta=lambda h: Morph(1, 7, h.data),
                        phi_depends_on_g=False)
    c3, k, chk = r_modeling_transfer(lambda d3: rel, lambda d1, d2, r: (6, 1),
                                     1, 2, 2)
    assert (c3, k, chk.ok) == (7, 1, True)
    c, trace = modeling_transfer(lambda d3: rel, _fixed_witness(6), DR, DR,
                                 1, 2, 1, 2, 2)
    assert c == trace.c == 7 and trace.d3 == 6


def test_transfers_refuse_a_relation_at_other_objects():
    cat = subset_category()
    # the relation was built at d3 = 9, but the provider witnessed d3 = 6
    at_nine = lambda d3: identity_modeling(cat, 1, 2, 9)
    with pytest.raises(ConstructionError) as exc:
        r_modeling_transfer(at_nine, lambda d1, d2, r: (6, 1), 1, 2, 2)
    assert str(exc.value) == \
        "relation triple disagrees with (d1, d2, d3) = (1, 2, 6)"
    with pytest.raises(ConstructionError) as exc:
        modeling_transfer(at_nine, _fixed_witness(6), DR, DR, 1, 2, 1, 2, 2)
    assert str(exc.value) == \
        "relation triple disagrees with (d1, d2, d3) = (1, 2, 6)"
    good = lambda d3: identity_modeling(cat, 1, 2, d3)
    with pytest.raises(ConstructionError) as exc:
        modeling_transfer(good, _fixed_witness(6), DR, DR, 1, 2, 1, 3, 2)
    assert str(exc.value) == "relation pair disagrees with (a, b) = (1, 3)"
    c, _ = modeling_transfer(good, _fixed_witness(6), DR, DR, 1, 2, 1, 2, 2)
    assert c == 6


# ---------------------------------------------------------------------------
# word substitutions modeled by step blocks


def test_hj_modeling_frozen_shape():
    v = ("V", (1, 2))
    rel = hj_modeling(v, 2, ((3, 2), (4, 2)))
    assert rel.c3[1] == 7
    assert rel.d3 == ((0, (3, 2)), (1, (4, 2)))
    zeta = check_cross_zeta(rel)
    assert zeta.ok and zeta.checked == 12 and not zeta.partial
    dfun = ProductFunctor((step_boundary("definition"),
                           step_boundary("definition")))
    compat = check_modeling_compatibility(rel, word_boundary(1), dfun)
    assert compat.ok and compat.checked == 3
    wd = check_cross_welldefined(rel)
    assert wd.ok and wd.checked == 12


def test_hj_modeling_zeta_concatenates_blocks():
    v = ("V", (1, 2))
    rel = hj_modeling(v, 1, ((3, 2),))
    assert rel.c3[1] == 3
    h = Morph(rel.d3, rel.d3, ((1, 2, 2),))
    out = rel.zeta(Morph(rel.d1, rel.d3, h.data))
    assert out == Morph(v, ("L", 3), ("F", (1, 2, 2)))


def test_hj_modeling_validations():
    with pytest.raises(ValueError):
        hj_modeling(("L", 2), 2, ((3, 2), (3, 2)))
    with pytest.raises(ValueError):
        hj_modeling(("V", (1, 2)), 0, ())
    with pytest.raises(ValueError):
        hj_modeling(("V", (1, 2)), 2, ((2, 2), (3, 2)))
    with pytest.raises(ValueError):
        hj_modeling(("V", (1, 2)), 2, ((3, 2),))
    with pytest.raises(ValueError):
        hj_modeling(("V", (1, 2)), 2, ((3, 1), (3, 2)))


def test_hj_witness_small_dimension():
    m, trace = hj_witness(1, 1, 2)
    assert m == 6 and len(trace.stages) == 1
    st = trace.stages[0]
    assert st.a == ("V", (1, 2)) and st.b == ("L", 1)
    assert st.witness == ("L", 6)
    assert st.note.welldefined_via == "zeta-identity"
    with pytest.raises(ValueError):
        hj_witness(0, 1, 2)


# ---------------------------------------------------------------------------
# trees end to end


def test_tree_oracle_regrows_deepest_level():
    trunc = tree_truncation()
    inst = FpInstance((1, 0), (2, 0, 0), (Morph((0,), (0,), (0,)),), 2)
    c, f_prime, g_prime = tree_fp_witness(inst, trunc)
    assert c == star(6)
    assert f_prime == Morph((0,), (0,), (0,))
    assert g_prime == Morph((0,), (0,), (0,))


def test_tree_oracle_builds_its_fans_under_the_budget():
    inst = FpInstance((1, 0), (2, 0, 0), (Morph((0,), (0,), (0,)),), 2)
    # one coordinate at 2 colors needs 2 bits
    with pytest.raises(BudgetExceeded) as exc:
        tree_fp_witness(inst, budget=SearchBudget(max_color_bits=1))
    assert str(exc.value) == "coordinate 0 color bits: need 2, cap 1"
    c, _, _ = tree_fp_witness(inst, budget=SearchBudget(max_color_bits=2))
    assert c == star(6)


def test_fouche_single_stage():
    v, trace = fouche_witness((1, 0), (2, 0, 0), 2)
    assert v == star(6)
    assert trace is not None and len(trace.stages) == 1
    assert trace.stages[0].witness == star(6)
    res = check_p_witness(tree_truncation(), (1, 0), (2, 0, 0), v, 2)
    assert res.ok and res.exhaustive


def test_fouche_builds_each_tree_shape_once(monkeypatch):
    built = Counter()

    def counting(t):
        built[t] += 1
        return structure(t)

    monkeypatch.setattr(trees_module, "_SHAPES", {})
    # every route to structure, a direct import by the constructions included
    for module in (trees_module, constructions_module):
        monkeypatch.setattr(module, "structure", counting, raising=False)
    v, _ = fouche_witness((2, 0, 0), (3, 0, 0, 0), 2)
    assert set(built) == {(2, 0, 0), (3, 0, 0, 0), (0,), v}
    assert max(built.values()) == 1


def test_fouche_obeys_the_color_bit_cap():
    # the tree oracle's product Ramsey numbers stage r**M colors
    with pytest.raises(BudgetExceeded) as exc:
        fouche_witness((2, 0, 0), (3, 0, 0, 0), 2,
                       budget=SearchBudget(max_color_bits=1))
    assert "color bits" in exc.value.quantity


def test_fouche_degenerate_inputs():
    assert fouche_witness((1, 0), (1, 1, 0), 2) == ((1, 1, 0), None)
    assert fouche_witness((0,), (3, 0, 0, 0), 2) == ((3, 0, 0, 0), None)
    with pytest.raises(ValueError):
        fouche_witness((1, 0), (2, 0, 0), 0)
