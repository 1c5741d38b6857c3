"""Acceptance gate: eight end-to-end checks with wall-clock limits.

Each test prints one line to the real terminal (pytest capture suspended):

    ACCEPTANCE <n> PASS (<elapsed>s): <label>

Every numeric claim here is either reproduced exhaustively, replayed from a
certificate, or cross-checked against an independent brute-force oracle from
the same codebase (tests/brute.py).
"""

import time

import pytest

from ramcat import (Morph, SearchBudget, binomial, check_category_laws,
                    check_cross_welldefined, check_cross_zeta,
                    check_frank_at, check_functor_laws,
                    check_modeling_compatibility, check_p_witness,
                    compose_word,
                    degree_upper_bound, dump_certificate, fouche_witness,
                    fp_to_p_construct, functor_image, hj_modeling, hj_witness,
                    p_certificate, p_pigeonhole_witness, product_ramsey_numbers,
                    ramsey_degree, replay_verify, standard_window, star,
                    subset_boundary, subset_category, tree_category,
                    tree_truncation, word_boundary, word_category)
from ramcat.categories import (ORIENTATIONS, ProductCategory, ProductFunctor,
                               StepBoundary, StepCategory, WordBoundary,
                               step_boundary)
from ramcat.constructions import r_fp_oracle
from brute import (brute_minimal_grid, brute_minimal_hj_dimension,
                   brute_minimal_single, fiber)

DR = subset_boundary()
RCAT = subset_category()


@pytest.fixture(autouse=True)
def _terminal(capfd):
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _announce(line):
    with _CAPFD.disabled():
        print(line, flush=True)


def _criterion(n, label, limit, body):
    t0 = time.monotonic()
    try:
        extra = body() or ""
        elapsed = time.monotonic() - t0
    except BaseException:
        elapsed = time.monotonic() - t0
        _announce(f"ACCEPTANCE {n} FAIL ({elapsed:.1f}s): {label}")
        raise
    verdict = "PASS" if elapsed < limit else "FAIL"
    _announce(f"ACCEPTANCE {n} {verdict} ({elapsed:.1f}s): {label}{extra}")
    assert elapsed < limit, f"criterion {n} took {elapsed:.1f}s (cap {limit}s)"


def test_criterion_1_classical_desk_scale():
    def body():
        dd = compose_word([DR, DR])
        ok6 = check_p_witness(dd, 2, 3, 6, 2, mode="exhaustive")
        assert ok6.ok and ok6.total == 2 ** 15 == ok6.checked
        bad5 = check_p_witness(dd, 2, 3, 5, 2, mode="exhaustive")
        assert not bad5.ok and bad5.counterexample is not None
        assert bad5.counterexample.cells is not None
        deg = ramsey_degree(RCAT, 2, 3, 2, range(0, 8))
        assert deg.degree == 1 and deg.witness == 6

    _criterion(1, "two-element subsets in [6], exhaustive + degree", 10, body)


def test_criterion_2_step_pigeonhole_grid():
    def body():
        budget = SearchBudget()
        passed, skipped = [], []
        for k1 in (2, 3):
            for l in (2, 3):
                for r in (1, 2, 3):
                    m, tag = p_pigeonhole_witness(k1, l, r)
                    assert m == (l - 1) * r + 2 and tag == 2
                    recorded = None
                    for orientation in ORIENTATIONS:
                        delta = step_boundary(orientation)
                        cells = delta.dom.hom_size((k1, 1), (m, 2))
                        if r ** cells > budget.max_colorings:
                            continue
                        res = check_p_witness(delta, (k1, 1), (l, 2), (m, 2),
                                              r, mode="exhaustive")
                        if res.ok:
                            recorded = orientation
                            break
                    if recorded is None:
                        cells = step_boundary("definition").dom.hom_size(
                            (k1, 1), (m, 2))
                        assert r ** cells > budget.max_colorings, \
                            f"{(k1, l, r)} failed inside the cap"
                        skipped.append((k1, l, r))
                    else:
                        passed.append(((k1, l, r), recorded))
        assert len(passed) == 11 and skipped == [(3, 3, 3)]
        assert all(o == "definition" for _, o in passed)
        return " [orientation=definition x11, over-cap: (3,3,3)]"

    _criterion(2, "step pigeonhole (m-1)=(l-1)r+1 across the grid", 60, body)


def test_criterion_3_fiber_recursion_certificates():
    def body():
        c_small, _ = fp_to_p_construct(DR, 1, 2, 2, r_fp_oracle())
        assert c_small == 6
        res = check_p_witness(DR, 1, 2, 6, 2, mode="exhaustive")
        doc = p_certificate(DR, 1, 2, 6, 2, res, mode="exhaustive")
        rep = replay_verify(doc, mode="exhaustive")
        assert rep.match and rep.verdict == "pass" and rep.result.exhaustive

        c_big, trace = fp_to_p_construct(DR, 2, 3, 2, r_fp_oracle())
        assert c_big == 27 and len(trace.stages) == 2
        res_b = check_p_witness(DR, 2, 3, 27, 2, mode="sampled",
                                samples=10_000, jobs=4)
        assert res_b.ok and res_b.samples == 10_000
        doc_b = p_certificate(DR, 2, 3, 27, 2, res_b, mode="sampled",
                              samples=10_000)
        rep_b = replay_verify(doc_b, jobs=4)
        assert rep_b.match and rep_b.verdict == "pass"
        assert rep_b.result.counterexample is None

    _criterion(3, "fiber-to-partition recursion at 6 and 27", 120, body)


def test_criterion_4_product_dimensions():
    def body():
        assert brute_minimal_single(1, 2, 2) == 3
        qvec, _ = product_ramsey_numbers((1, 1), (2, 2), 2)
        assert qvec == (130, 6)
        q_min = brute_minimal_grid(2, cap=6)
        assert q_min == 5
        assert all(q_min <= q for q in qvec)

    _criterion(4, "grid minimum 5 dominated by constructed (130, 6)", 300,
               body)


def test_criterion_5_line_dimension():
    def body():
        assert brute_minimal_hj_dimension(2, 2) == 2
        m, _ = hj_witness(1, 1, 2)
        assert m >= 2 and m == 6
        bound = word_boundary(1)
        v0 = standard_window(1)
        res = check_p_witness(bound, v0, ("L", 1), ("L", m), 2,
                              mode="sampled", samples=10_000, jobs=4)
        assert res.ok and res.samples == 10_000
        doc = p_certificate(bound, v0, ("L", 1), ("L", m), 2, res,
                            theorem="hj", mode="sampled", samples=10_000)
        rep = replay_verify(doc, jobs=4)
        assert rep.match and rep.verdict == "pass"
        assert rep.result.counterexample is None

    _criterion(5, "line dimension: brute minimum 2, constructed 6", 120, body)


def test_criterion_6_tree_pipeline():
    def body():
        trunc = tree_truncation()
        v_small, tr = fouche_witness((1, 0), (2, 0, 0), 2)
        assert v_small == star(6) and tr is not None
        res = check_p_witness(trunc, (1, 0), (2, 0, 0), v_small, 2,
                              mode="exhaustive")
        assert res.ok and res.total == 2 ** 6

        v_big, _ = fouche_witness((2, 0, 0), (3, 0, 0, 0), 2)
        assert v_big == star(27)
        cells = trunc.dom.hom_size((2, 0, 0), v_big)
        assert cells == binomial(27, 2) == 351
        res_b = check_p_witness(trunc, (2, 0, 0), (3, 0, 0, 0), v_big, 2,
                                mode="sampled", samples=10_000, jobs=4)
        assert res_b.ok and res_b.samples == 10_000
        assert res_b.counterexample is None

    _criterion(6, "tree regrowth: star(6) exhaustive, star(27) sampled", 300,
               body)


def test_criterion_7_laws_and_frankness():
    def body():
        # subsets 0..6
        r_objs = list(range(0, 7))
        assert check_category_laws(RCAT, r_objs).ok
        assert check_functor_laws(DR, r_objs).ok
        for a in r_objs:
            for b in r_objs:
                assert check_frank_at(DR, a, DR.obj(b)).status == "pass"

        # step functions, both orientations, k <= 3 and l <= 5
        for orientation in ORIENTATIONS:
            cat = StepCategory(orientation)
            objs = [(k, t) for k in (1, 2, 3) for t in (0, 1)
                    if cat.is_object((k, t))]
            objs += [(l, 2) for l in range(1, 6)]
            assert check_category_laws(cat, objs).ok
            delta = StepBoundary(cat)
            assert check_functor_laws(delta, objs).ok
            for a in objs:
                for b in objs:
                    assert check_frank_at(delta, a, delta.obj(b)).status == \
                        "pass"

        # words, k0 <= 1, l <= 3
        for k0 in (0, 1):
            cat = word_category(k0)
            objs = list(cat.v_objects()) + [("L", l) for l in range(0, 4)]
            assert check_category_laws(cat, objs).ok
            bound = WordBoundary(cat)
            assert check_functor_laws(bound, objs).ok
            for a in objs:
                for b in objs:
                    assert check_frank_at(bound, a, bound.obj(b)).status == \
                        "pass"

        # trees with at most 8 nodes (626 of them)
        tcat = tree_category()
        trees = []
        for t in tcat.iter_objects():
            if len(t) > 8:
                break
            trees.append(t)
        assert len(trees) == 626
        assert check_category_laws(tcat, trees).ok
        trunc = tree_truncation(tcat)
        assert check_functor_laws(trunc, trees).ok
        for a in (t for t in trees if len(t) <= 5):
            for b in (t for t in trees if len(t) <= 5):
                assert check_frank_at(trunc, a, trunc.obj(b)).status == "pass"

        # binary products of the above
        rr = ProductCategory((subset_category(), subset_category()))
        rr_objs = [rr.pack(v) for v in ((0, 0), (1, 1), (1, 2), (2, 2),
                                        (2, 3), (3, 3))]
        assert check_category_laws(rr, rr_objs).ok
        rr_fun = ProductFunctor((subset_boundary(), subset_boundary()))
        assert check_functor_laws(rr_fun, rr_objs).ok
        for a in rr_objs:
            for b in rr_objs:
                assert check_frank_at(rr_fun, a, rr_fun.obj(b)).status == \
                    "pass"
        rp = ProductCategory((subset_category(), StepCategory()))
        rp_objs = [rp.pack(v) for v in ((1, (2, 1)), (2, (3, 2)),
                                        (2, (4, 2)), (3, (4, 2)))]
        assert check_category_laws(rp, rp_objs).ok
        rp_fun = ProductFunctor((subset_boundary(), step_boundary()))
        assert check_functor_laws(rp_fun, rp_objs).ok

    _criterion(7, "laws and frank lifts over the default fragments", 300,
               body)


def test_criterion_8_property_suite():
    def body():
        # upward closure of witnesses
        dd = compose_word([DR, DR])
        for fun, a, b in ((DR, 1, 2), (DR, 2, 3), (dd, 2, 3)):
            oks = [check_p_witness(fun, a, b, c, 2, mode="exhaustive").ok
                   for c in range(b, 7)]
            assert oks == sorted(oks) and oks[-1]

        # fibers partition hom(a, b)
        for fun in (DR, dd):
            for a in range(0, 3):
                for b in range(a, 6):
                    pieces = [fiber(fun, a, b, m)
                              for m in functor_image(fun, a, b)]
                    got = sorted(f.key() for p in pieces for f in p)
                    assert got == sorted(f.key()
                                         for f in fun.dom.hom(a, b))

        # degree monotone in the color count
        for b, cap in ((2, 6), (3, 5)):
            degs = [ramsey_degree(RCAT, 1, b, r, range(0, cap + 1),
                                  mode="exhaustive").degree
                    for r in (1, 2, 3)]
            assert None not in degs and degs == sorted(degs)

        # image bound at or under the trivial ceiling, degree at or under both
        for a, b in ((1, 2), (1, 3), (2, 3)):
            bound, _ = degree_upper_bound(a, b, DR)
            assert 1 <= bound <= RCAT.hom_size(a, b)
        bound, _ = degree_upper_bound(2, 3, DR)
        deg = ramsey_degree(RCAT, 2, 3, 2, range(0, 8))
        assert deg.degree <= bound <= RCAT.hom_size(2, 3)

        # jobs never leak into certificates
        for c, expect in ((5, "fail"), (6, "pass")):
            texts = []
            for jobs in (1, 4):
                res = check_p_witness(dd, 2, 3, c, 2, mode="exhaustive",
                                      jobs=jobs)
                texts.append(dump_certificate(
                    p_certificate(dd, 2, 3, c, 2, res, mode="exhaustive")))
            assert texts[0] == texts[1]
            assert f'"verdict":"{expect}"' in texts[0]

        # cross-relation checks on the block modeling, plus the
        # concatenation identity linking zeta to the window letters
        v = ("V", (1, 2))
        for l, blocks in ((1, ((3, 2),)), (2, ((3, 2), (4, 2)))):
            rel = hj_modeling(v, l, blocks)
            assert rel.c3[1] == sum(m for m, _ in blocks)
            assert check_cross_zeta(rel).ok
            assert check_cross_welldefined(rel).ok
            dfun = ProductFunctor(tuple(step_boundary("definition")
                                        for _ in range(l)))
            assert check_modeling_compatibility(rel, word_boundary(1),
                                                dfun).ok
            payload = tuple(tuple(min(i + 1, 2) for _ in range(m))
                            for i, (m, _) in enumerate(blocks))
            out = rel.zeta(Morph(rel.d1, rel.d3, payload))
            letters = [x for i, (m, _) in enumerate(blocks)
                       for x in [min(i + 1, 2)] * m]
            assert out == Morph(v, ("L", rel.c3[1]), ("F", tuple(letters)))

    _criterion(8, "closure, partitions, monotonicity, jobs, modeling", 300,
               body)
