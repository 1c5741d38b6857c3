"""Collapse checking: exhaustive sweeps, sampling, budgets, degrees."""

import os

import pytest
from brute import brute_p_checks, brute_refutes

from ramcat import engine
from ramcat import (DEFAULT_SEED, BudgetExceeded, Category, Coloring,
                    FpInstance, Morph, ProductCategory, SearchBudget,
                    check_degree_bound, check_degree_witness, check_fp_witness,
                    check_p_witness, compose_word, degree_upper_bound,
                    dump_certificate, fiber, functor_image, p_certificate,
                    prf_color, ramsey_degree, replay_verify, search_p_witness,
                    SubsetCategory, subset_boundary, subset_category)
from ramcat.categories import (TreeCategory, product_functor, standard_window,
                               star, tree_truncation, word_boundary)
from ramcat.categories.pcat import StepBoundary, StepCategory

DR = subset_boundary()
DD = compose_word([DR, DR])


# ---------------------------------------------------------------------------
# frozen verdicts for the subset boundary


def test_single_boundary_collapse_at_four():
    res = check_p_witness(DR, 2, 3, 4, 2)
    assert res.ok and res.exhaustive
    assert res.cells == 6 and res.arrows == 4
    assert res.total == 2 ** res.cells
    found = search_p_witness(DR, 2, 3, 2, range(0, 8))
    assert found is not None
    c, inner = found
    assert c == 4 and inner.ok


def test_composite_boundary_fails_at_five():
    res = check_p_witness(DD, 2, 3, 5, 2)
    assert not res.ok and res.exhaustive
    assert res.counterexample is not None
    assert res.counterexample.index == 220
    assert res.counterexample.cells == (0, 0, 1, 1, 1, 0, 1, 1, 0, 0)
    # the counterexample replays to the same failing coloring
    col = Coloring(r=2, size=res.cells, kind="index",
                   index=res.counterexample.index, seed=res.seed,
                   cells=res.counterexample.cells)
    assert tuple(col.cell(j) for j in range(res.cells)) == \
        res.counterexample.cells


def test_composite_boundary_passes_at_six():
    res = check_p_witness(DD, 2, 3, 6, 2)
    assert res.ok and res.exhaustive
    assert res.total == 32768
    assert res.checked == res.total


def test_trivial_color_counts():
    assert check_p_witness(DR, 1, 2, 2, 1).ok
    with pytest.raises(ValueError, match="need at least one color"):
        check_p_witness(DR, 1, 2, 2, 0)
    # zero colors is no run, not a vacuous pass, even with no arrows at all
    with pytest.raises(ValueError, match="need at least one color, got 0"):
        check_p_witness(DR, 3, 3, 2, 0)


def test_an_empty_hom_bc_fails_at_the_first_coloring():
    # hom(3, 2) is empty, so no g rescues the one coloring of no cells
    res = check_p_witness(DR, 3, 3, 2, 1)
    assert not res.ok and res.exhaustive
    assert (res.cells, res.arrows, res.checked, res.total) == (0, 0, 1, 1)
    assert res.counterexample.index == 0 and res.counterexample.cells == ()


# ---------------------------------------------------------------------------
# sampling and budgets


def test_sampled_mode_is_deterministic():
    a = check_p_witness(DR, 2, 3, 6, 2, mode="sampled", samples=200, seed=7)
    b = check_p_witness(DR, 2, 3, 6, 2, mode="sampled", samples=200, seed=7)
    assert a == b
    assert not a.exhaustive and a.samples == 200 and a.seed == 7
    c = check_p_witness(DR, 2, 3, 6, 2, mode="sampled", samples=200, seed=8)
    assert c.ok  # verdict agrees even though the draw differs


def test_sampled_failures_are_real():
    res = check_p_witness(DD, 2, 3, 5, 2, mode="sampled", samples=300, seed=1)
    assert not res.ok
    cex = res.counterexample
    assert cex is not None and cex.cells is not None
    col = Coloring(r=2, size=res.cells, kind="sample", index=cex.index,
                   seed=res.seed, cells=cex.cells)
    cells = tuple(col.cell(j) for j in range(res.cells))
    assert cells == cex.cells
    # replay the quantifier by hand: no g collapses this coloring
    cat = DD.cod
    for g in subset_category().hom(3, 5):
        classes = {}
        good = True
        for j, f in enumerate(subset_category().hom(2, 3)):
            key = DD.morph(f).encode()
            seen = classes.setdefault(key, cells[_index_of(cat, 2, 5,
                                                           subset_category()
                                                           .compose(g, f))])
            if seen != cells[_index_of(cat, 2, 5,
                                       subset_category().compose(g, f))]:
                good = False
                break
        if good:
            pytest.fail("sampled counterexample was not a real failure")


def _index_of(cat, a, c, arrow):
    for i, f in enumerate(cat.hom(a, c)):
        if f == arrow:
            return i
    raise AssertionError("arrow not found")


def test_exhaustive_respects_coloring_budget():
    tight = SearchBudget(max_colorings=10)
    with pytest.raises(BudgetExceeded) as exc:
        check_p_witness(DR, 2, 3, 6, 2, mode="exhaustive", budget=tight)
    assert exc.value.quantity == "colorings"
    # auto mode decides it by the node-capped search instead of failing
    res = check_p_witness(DR, 2, 3, 6, 2, mode="auto", budget=tight,
                          samples=50)
    assert res.ok and res.exhaustive and res.checked == res.nodes == 27
    # and samples where that search runs out of nodes (R(4,4) = 18)
    res = check_p_witness(DD, 2, 4, 18, 2, mode="auto", samples=50)
    assert res.ok and not res.exhaustive and res.checked == 50


def test_non_objects_are_refused():
    step = StepBoundary(StepCategory())
    with pytest.raises(ValueError, match="not an object"):
        check_p_witness(step, (2, 1), (9, 9), (3, 2), 2)
    with pytest.raises(ValueError, match="not an object"):
        check_degree_witness(subset_category(), 1, 2, -1, 2, 1)
    inst = FpInstance(a=1, b=2, s=(Morph(0, 1, ()),), r=2)
    with pytest.raises(ValueError, match="not an object"):
        check_fp_witness(DR, inst, -6, Morph(0, 1, ()), Morph(1, 5, (1,)))


def test_hom_budget_guards_enumeration():
    tight = SearchBudget(max_hom_size=5)
    with pytest.raises(BudgetExceeded) as exc:
        check_p_witness(DR, 2, 3, 6, 2, budget=tight)
    assert exc.value.quantity == "hom-set size"


def test_tree_hom_budget_refuses_before_enumerating(monkeypatch):
    def no_enumeration(self, a, b):
        pytest.fail(f"hom({a!r}, {b!r}) built before the budget refused it")

    monkeypatch.setattr(TreeCategory, "hom", no_enumeration)
    tight = SearchBudget(max_hom_size=1000)
    with pytest.raises(BudgetExceeded) as exc:
        check_p_witness(tree_truncation(), (2, 0, 0), (3, 0, 0, 0), star(100),
                        2, budget=tight)
    assert exc.value.quantity == "hom-set size"
    assert exc.value.needed == 161_700  # C(100, 3) copies of (3, 0, 0, 0)


@pytest.mark.parametrize("r, mode, message", [
    (2, "bogus", "unknown mode"),
    pytest.param(-1, "auto", "need at least one color", id="-1-auto-no-colors"),
    pytest.param(0, "auto", "need at least one color", id="0-auto-no-colors")])
def test_bad_mode_or_color_count_is_refused_before_any_hom(monkeypatch, r,
                                                           mode, message):
    def no_enumeration(self, a, b):
        pytest.fail(f"hom({a!r}, {b!r}) built before the inputs were refused")

    monkeypatch.setattr(SubsetCategory, "hom", no_enumeration)
    with pytest.raises(ValueError, match=message):
        check_p_witness(DD, 2, 3, 7, r, mode=mode)


def test_exhaustive_over_the_coloring_budget_is_refused_before_any_hom(
        monkeypatch):
    def built(*args):
        pytest.fail("a hom-set or action row was built before the refusal")

    monkeypatch.setattr(SubsetCategory, "hom", built)
    monkeypatch.setattr(Category, "action", built)
    with pytest.raises(BudgetExceeded) as exc:
        check_p_witness(DD, 2, 3, 120, 2, mode="exhaustive")
    assert exc.value.quantity == "colorings"
    assert exc.value.needed == 2 ** 7140     # C(120, 2) cells


def test_step_hom_budget_refuses_before_enumerating(monkeypatch):
    def no_enumeration(self, a, b):
        pytest.fail(f"hom({a!r}, {b!r}) built before the budget refused it")

    monkeypatch.setattr(StepCategory, "hom", no_enumeration)
    tight = SearchBudget(max_hom_size=10)
    with pytest.raises(BudgetExceeded) as exc:
        check_p_witness(StepBoundary(StepCategory()), (2, 1), (3, 2), (200, 2),
                        2, budget=tight)
    assert exc.value.quantity == "hom-set size"
    assert exc.value.needed == 19_701  # C(199, 2) surjections onto [3]


def test_hom_budget_refusal_names_the_hom_set():
    with pytest.raises(BudgetExceeded) as exc:
        check_p_witness(DR, 2, 3, 6, 2, budget=SearchBudget(max_hom_size=5))
    assert exc.value.quantity == "hom-set size"
    assert str(exc.value) == "hom-set size: need 20, cap 5 at hom(3, 6)"


@pytest.mark.parametrize("needed, power, shown", [
    (20, None, "20"), (10 ** 18, None, str(10 ** 18)),
    (10 ** 18 + 1, None, "at least 10**18"), (10 ** 400, None, "at least 10**400"),
    (10 ** 400 - 1, None, "at least 10**399"),
    (3 ** 10000 - 2 ** 10000, None, "at least 10**4771"),
    (2 ** 60, (2, 60), "2**60"), (2 ** 59, (2, 59), str(2 ** 59))],
    ids=["small", "10**18", "10**18+1", "10**400", "10**400-1", "3**10000",
         "power", "small-power"])
def test_refusals_show_huge_counts_without_their_digits(needed, power, shown):
    exc = BudgetExceeded("hom-set size", needed, 5, " at hom(1, 2)",
                         power=power)
    assert str(exc) == f"hom-set size: need {shown}, cap 5 at hom(1, 2)"
    assert exc.needed == needed


def test_functor_image_refuses_before_building(monkeypatch):
    def no_enumeration(self, a, b):
        pytest.fail(f"hom({a!r}, {b!r}) built before the budget refused it")

    monkeypatch.setattr(SubsetCategory, "hom", no_enumeration)
    with pytest.raises(BudgetExceeded) as exc:
        functor_image(DR, 2, 6, SearchBudget(max_hom_size=14))
    assert str(exc.value) == "hom-set size: need 15, cap 14 at hom(2, 6)"
    with pytest.raises(ValueError, match="not an object"):
        functor_image(DR, 2, -1)


@pytest.mark.parametrize("kw, message", [
    (dict(mode="sampled", samples=0), "samples must be at least 1, got 0"),
    (dict(mode="sampled", samples=-5), "samples must be at least 1, got -5"),
    (dict(jobs=0), "jobs must be at least 1, got 0"),
    (dict(mode="exhaustive", jobs=-1), "jobs must be at least 1, got -1")])
def test_empty_sample_or_job_counts_are_refused_before_any_hom(monkeypatch,
                                                               kw, message):
    def no_enumeration(self, a, b):
        pytest.fail(f"hom({a!r}, {b!r}) built before the inputs were refused")

    monkeypatch.setattr(SubsetCategory, "hom", no_enumeration)
    with pytest.raises(ValueError, match=message):
        check_p_witness(DD, 2, 4, 17, 2, **kw)


def test_sample_count_is_only_checked_when_sampling():
    # decided exhaustively, so no sample is drawn
    for mode in ("auto", "exhaustive"):
        res = check_p_witness(DD, 2, 3, 6, 2, mode=mode, samples=0)
        assert res.ok and res.exhaustive and res.checked == 2 ** 15
    with pytest.raises(BudgetExceeded):
        check_p_witness(DD, 2, 4, 17, 2, mode="exhaustive", samples=0)
    # past the coloring budget, auto refuses only a run left to sample: the
    # search proves (2,3,7), the orbit search refutes (2,4,17), and neither
    # decides (2,4,18)
    res = check_p_witness(DD, 2, 3, 7, 2, samples=0)
    assert res.ok and res.exhaustive and res.nodes == 325
    res = check_p_witness(DD, 2, 4, 17, 2, samples=-5)
    assert not res.ok and res.mode == "orbit" and res.nodes == 20
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        check_p_witness(DD, 2, 4, 18, 2, samples=0)


def test_jobs_split_gives_identical_results():
    for c, expect in ((5, False), (6, True)):
        runs = [check_p_witness(DD, 2, 3, c, 2, jobs=j) for j in (1, 2, 4)]
        assert all(r.ok is expect for r in runs)
        assert runs[0] == runs[1] == runs[2]


def test_exhaustive_search_needs_no_deep_stack():
    # r = 1 leaves n unbounded by the coloring budget: 3,000 cells deep
    res = check_degree_witness(subset_category(), 1, 1, 3000, 1, 0)
    assert not res.ok and res.exhaustive
    assert res.checked == res.total == 1
    assert res.counterexample.index == 0


def test_exhaustive_search_covers_two_to_the_21():
    res = check_p_witness(DD, 2, 3, 7, 2,
                          budget=SearchBudget(max_colorings=2 ** 21))
    assert res.ok and res.exhaustive
    assert res.checked == res.total == 2 ** 21


def test_exhaustive_search_never_forks(monkeypatch):
    expected = [check_p_witness(DD, 2, 3, c, 2) for c in (5, 6)]

    def refuse(*args, **kw):
        raise AssertionError("exhaustive checks run in-process")

    monkeypatch.setattr(engine, "ProcessPoolExecutor", refuse)
    assert [check_p_witness(DD, 2, 3, c, 2, jobs=4) for c in (5, 6)] == expected


def test_sampled_jobs_still_use_the_pool(monkeypatch):
    kw = dict(mode="sampled", samples=300, seed=1)
    expected = [check_p_witness(DD, 2, 3, c, 2, **kw) for c in (5, 6)]
    pools = []

    def counted(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    real = engine.ProcessPoolExecutor
    monkeypatch.setattr(engine, "ProcessPoolExecutor", counted)
    got = [check_p_witness(DD, 2, 3, c, 2, jobs=4, **kw) for c in (5, 6)]
    assert got == expected
    assert not got[0].ok and got[1].ok
    assert pools == [4, 4]


# ---------------------------------------------------------------------------
# checks compiled on demand


class _LateBrokenCompose(SubsetCategory):
    """Composes wrongly only through (4, 5, 6), the last arrow of hom(3, 6):
    the bad composites sit in the last of hom(3, 6)'s 20 action rows."""

    def compose(self, g, f):
        good = super().compose(g, f)
        if g.data == (4, 5, 6) and len(f.data) == 2:
            return Morph(good.dom, good.cod, good.data[::-1])
        return good


@pytest.mark.parametrize("jobs", [1, 2])
def test_validation_covers_rows_a_sampled_pass_never_reads(jobs):
    # the sound category passes every sample early; the broken one fails
    # validation in a row that no passing sample would read
    kw = dict(mode="sampled", samples=jobs, jobs=jobs)
    res = check_p_witness(DR, 2, 3, 6, 2, **kw)
    assert res.ok and res.checked == jobs and res.arrows == 20
    broken = subset_boundary(_LateBrokenCompose())
    with pytest.raises(ValueError, match=r"not in hom\(2, 6\)"):
        check_p_witness(broken, 2, 3, 6, 2, **kw)
    # a product validates its factor tables before it streams any row
    pcat = ProductCategory((subset_category(), _LateBrokenCompose()))
    a, b, c = (pcat.pack(v) for v in ((1, 2), (1, 3), (1, 6)))
    with pytest.raises(ValueError, match=r"not in hom\(2, 6\)"):
        pcat.action(a, b, c)


def test_sampled_pass_pulls_few_product_rows(monkeypatch):
    fun = product_functor(DR, DR)
    pcat = fun.dom
    a, b, c = (pcat.pack(v) for v in ((1, 1), (2, 2), (8, 8)))
    kw = dict(mode="sampled", samples=200)
    expected = check_p_witness(fun, a, b, c, 2, **kw)
    calls, pulled = [], []          # filled in the calling process only
    real = ProductCategory.action

    def counted(self, x, y, z):
        calls.append((x, y, z))
        return (pulled.append(row) or row for row in real(self, x, y, z))

    monkeypatch.setattr(ProductCategory, "action", counted)
    # two jobs leave every action call to the workers
    assert check_p_witness(fun, a, b, c, 2, jobs=2, **kw) == expected
    assert calls == pulled == []
    res = check_p_witness(fun, a, b, c, 2, **kw)
    assert res == expected and res.ok and calls == [(a, b, c)]
    assert res.arrows == pcat.hom_size(b, c) == 784
    assert 0 < len(pulled) <= res.arrows // 8


# ---------------------------------------------------------------------------
# auto past the coloring budget: a node-capped search over checks compiled
# once, then sampling from the same checks


@pytest.mark.parametrize("fun, abc, r, nodes", [
    (DD, (2, 3, 7), 2, 325),        # R(3,3) = 6; 2**21 colorings
    (DR, (2, 3, 27), 2, 27),        # the fp->p witness of (2, 3)
    (compose_word([word_boundary(1)]),
     (standard_window(1), ("L", 1), ("L", 6)), 2, 7),     # Hales-Jewett
], ids=["dR,dR (2,3,7)", "fp2p (2,3,27)", "hj"])
def test_auto_search_proves_true_witnesses_in_pinned_nodes(fun, abc, r, nodes):
    res = check_p_witness(fun, *abc, r)
    assert r ** res.cells > SearchBudget().max_colorings
    assert res.ok and res.exhaustive and not res.probabilistic
    assert res.checked == res.nodes == nodes < 2 ** 63
    assert res.total is None and res.samples is None and res.seed is None


def test_auto_search_fail_keeps_the_least_failing_index():
    res = check_p_witness(DD, 2, 3, 5, 2, budget=SearchBudget(max_colorings=10))
    assert not res.ok and res.exhaustive
    assert res.counterexample.kind == "index"
    assert res.counterexample.index == 220
    assert res.checked == res.nodes == 47 < 2 ** 63
    # the same coloring a scan within the budget reports
    assert res.counterexample == check_p_witness(DD, 2, 3, 5, 2).counterexample


@pytest.mark.parametrize("b, c, r, digest", [
    (4, 18, 2,
     "5e9c8a6978a28fd1032cf4cffaf297b368658d67ba427b15ba027ba5af708886"),
    (3, 17, 3,
     "726064f00c37d7a14cf8cfd8a3011a6d3a6f28c68b01d8a70254760e5be9d44e"),
], ids=["4-18-2", "3-17-3"])
def test_auto_falls_back_to_exactly_the_sampled_check(b, c, r, digest):
    # R(4,4) = 18 and R(3,3,3) = 17: true claims that the search cannot
    # settle and that no move refutes
    kw = dict(seed=DEFAULT_SEED, samples=1000)
    sampled = check_p_witness(DD, 2, b, c, r, mode="sampled", **kw)
    runs = [check_p_witness(DD, 2, b, c, r, jobs=jobs, **kw) for jobs in (1, 2)]
    assert runs == [sampled, sampled] and sampled.nodes is None
    doc = p_certificate(DD, 2, b, c, r, sampled, **kw)
    assert doc["digest"] == digest      # the bytes sampling wrote before
    rep = replay_verify(doc, jobs=2)
    assert rep.match and rep.result == sampled
    again = p_certificate(DD, 2, b, c, r, rep.result, **kw)
    assert dump_certificate(again) == dump_certificate(doc)


def test_auto_fallback_builds_action_rows_once_in_the_parent(monkeypatch):
    parent, calls, pools = os.getpid(), [], []
    action, pool = SubsetCategory.action, engine.ProcessPoolExecutor

    def counted(self, a, b, c):
        if os.getpid() != parent:
            raise AssertionError("a pool worker built action rows")
        calls.append((a, b, c))
        return action(self, a, b, c)

    def counted_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return pool(*args, **kwargs)

    monkeypatch.setattr(SubsetCategory, "action", counted)
    monkeypatch.setattr(engine, "ProcessPoolExecutor", counted_pool)
    res = check_p_witness(DD, 2, 4, 18, 2, samples=200, jobs=2)
    assert res.ok and not res.exhaustive and res.checked == 200
    assert calls == [(2, 4, 18)] and pools == [2]


def test_auto_past_the_check_gate_samples_lazily(monkeypatch):
    fun = product_functor(DR, DR)
    pcat = fun.dom
    a, b, c = (pcat.pack(v) for v in ((1, 1), (2, 2), (15, 15)))
    pulled = []
    real = ProductCategory.action
    monkeypatch.setattr(ProductCategory, "action", lambda self, x, y, z: (
        pulled.append(row) or row for row in real(self, x, y, z)))
    res = check_p_witness(fun, a, b, c, 2, samples=20)
    assert res.arrows == pcat.hom_size(b, c) > engine.SEARCH_MAX_CHECKS
    assert res.ok and not res.exhaustive and res.nodes is None
    assert 0 < len(pulled) <= res.arrows // 8


# ---------------------------------------------------------------------------
# auto's falsifier: colorings constant on the orbits of the category's moves


@pytest.mark.parametrize("b, c, r, group, nodes, index", [
    (4, 17, 2, "shift", 20, 46),        # the Paley graph on 17 is circulant
    (3, 16, 3, "xor", 1206, 638277),    # a Cayley 3-coloring of Z_2^4
], ids=["R(4,4)=18", "R(3,3,3)=17"])
def test_auto_refutes_false_witnesses_by_orbit_search(b, c, r, group, nodes,
                                                      index):
    res, again = (check_p_witness(DD, 2, b, c, r, jobs=jobs) for jobs in (1, 2))
    assert again == res
    assert not res.ok and not res.exhaustive and not res.probabilistic
    assert (res.group, res.nodes, res.checked) == (group, nodes, nodes)
    assert res.total is None and res.samples is None and res.seed is None
    cex = res.counterexample
    assert (cex.kind, cex.index, cex.size) == ("orbit", index, res.cells)
    assert brute_refutes(brute_p_checks(DD, 2, b, c), cex.cells)
    doc = p_certificate(DD, 2, b, c, r, res)
    ver = doc["verification"]
    assert (ver["mode"], ver["group"], ver["nodes"]) == ("orbit", group, nodes)
    assert ver["counterexample"]["cells"] == list(cex.cells)
    rep = replay_verify(doc, jobs=2)
    assert rep.match and rep.result == res and not rep.upgraded
    assert (dump_certificate(p_certificate(DD, 2, b, c, r, rep.result))
            == dump_certificate(doc))


@pytest.mark.parametrize("budget", [None, SearchBudget(max_colorings=10)])
def test_decided_fails_keep_the_least_failing_index(budget):
    # a scan and the node-capped search both settle (2,3,5) first
    res = check_p_witness(DD, 2, 3, 5, 2, budget=budget)
    assert not res.ok and res.exhaustive and res.group is None
    assert (res.counterexample.kind, res.counterexample.index) == ("index", 220)


class _ShiftOnly(SubsetCategory):
    def moves(self, a, c):
        return super().moves(a, c)[:1]


def test_an_orbit_space_that_passes_proves_nothing(monkeypatch):
    # no shift-constant coloring refutes (2,3,16) r=3, and past its node cap
    # the xor search gives up: either way auto samples as before
    kw = dict(samples=100)
    sampled = check_p_witness(DD, 2, 3, 16, 3, mode="sampled", **kw)
    shift = compose_word([subset_boundary(_ShiftOnly())] * 2)
    assert check_p_witness(shift, 2, 3, 16, 3, **kw) == sampled
    monkeypatch.setattr(engine, "ORBIT_MAX_NODES", 1205)
    assert check_p_witness(DD, 2, 3, 16, 3, **kw) == sampled
    monkeypatch.setattr(engine, "ORBIT_MAX_NODES", 1206)
    assert check_p_witness(DD, 2, 3, 16, 3, **kw).group == "xor"
    assert sampled.ok and sampled.probabilistic and sampled.group is None


def test_the_falsifier_runs_only_on_inlined_colorings(monkeypatch):
    kw = dict(samples=50)
    sampled = check_p_witness(DD, 2, 4, 17, 2, mode="sampled", **kw)
    monkeypatch.setattr(engine, "COUNTEREXAMPLE_INLINE_CAP", 135)
    assert check_p_witness(DD, 2, 4, 17, 2, **kw) == sampled


class _NotAPermutation(SubsetCategory):
    def moves(self, a, c):
        return (("collapse", ((0,) * self.hom_size(a, c),)),)


def test_a_move_that_is_not_a_permutation_is_refused():
    dd = compose_word([subset_boundary(_NotAPermutation())] * 2)
    with pytest.raises(ValueError, match="not a permutation of 136 cells"):
        check_p_witness(dd, 2, 4, 17, 2, samples=1)


def test_subset_moves_are_the_lifted_point_maps():
    cat = subset_category()
    hom = cat.hom(2, 8)
    moves = dict(cat.moves(2, 8))
    assert sorted(moves) == ["shift", "xor"] and len(moves["xor"]) == 3
    assert [hom[i].data for i in moves["shift"][0][:3]] == [
        (2, 3), (2, 4), (2, 5)]
    # the labels 1..8 read as 0..7 in GF(2)^3: xor 1 swaps 1, 2 and 3, 4
    assert [hom[i].data for i in moves["xor"][0][:3]] == [
        (1, 2), (2, 4), (2, 3)]
    assert [name for name, _ in cat.moves(2, 6)] == ["shift"]
    pcat = ProductCategory((cat, cat))      # products offer no moves yet
    assert pcat.moves(pcat.pack((1, 1)), pcat.pack((2, 2))) == ()


# ---------------------------------------------------------------------------
# fibers and localized witnesses


def test_fiber_partitions_hom():
    cat = subset_category()
    fibers = {}
    for f in cat.hom(2, 4):
        fibers.setdefault(DR.morph(f), []).append(f)
    for key, members in fibers.items():
        assert tuple(members) == fiber(DR, 2, 4, key)
    assert sum(len(m) for m in fibers.values()) == cat.hom_size(2, 4)
    assert functor_image(DR, 2, 4) == tuple(sorted(
        fibers, key=lambda m: m.key()))


def test_fp_witness_frozen_pass():
    inst = FpInstance(a=1, b=2, s=(Morph(0, 1, ()),), r=2)
    f_prime = Morph(0, 1, ())
    g_prime = Morph(1, 5, (1,))
    res = check_fp_witness(DR, inst, 6, f_prime, g_prime)
    assert res.ok and res.exhaustive


def test_fp_witness_validation_errors():
    inst = FpInstance(a=1, b=2, s=(Morph(0, 1, ()),), r=2)
    good_f = Morph(0, 1, ())
    good_g = Morph(1, 5, (1,))
    with pytest.raises(ValueError):
        check_fp_witness(DR, FpInstance(1, 2, (), 2), 6, good_f, good_g)
    with pytest.raises(ValueError, match="f_prime"):
        check_fp_witness(DR, inst, 6, Morph(0, 2, ()), good_g)
    with pytest.raises(ValueError, match="g_prime"):
        check_fp_witness(DR, inst, 6, good_f, Morph(1, 4, (1,)))
    bad_s = FpInstance(1, 2, (Morph(1, 1, (1,)),), 2)
    with pytest.raises(ValueError, match="image"):
        check_fp_witness(DR, bad_s, 6, Morph(1, 1, (1,)), good_g)


# ---------------------------------------------------------------------------
# degrees


def test_brute_degree_over_small_pool():
    deg = ramsey_degree(subset_category(), 2, 3, 2, range(0, 8))
    assert deg.degree == 1 and deg.witness == 6
    assert len(deg.trail) == 7
    ks, cs, oks = zip(*deg.trail)
    assert ks[0] == 1 and oks[-1]
    assert deg.result is not None and deg.result.ok


def test_degree_zero_when_hom_is_empty():
    deg = ramsey_degree(subset_category(), 3, 2, 2, range(0, 5))
    assert deg.degree == 0 and deg.witness == 2
    assert deg.trail == ()


@pytest.mark.parametrize("r", [0, -1])
def test_degree_refuses_no_colors_even_when_hom_is_empty(r):
    # the empty hom(3, 2) returns degree 0 before any check could refuse r
    with pytest.raises(ValueError, match=f"need at least one color, got {r}"):
        ramsey_degree(subset_category(), 3, 2, r, range(0, 5))


def test_degree_witness_checker_spread():
    # five points two-colored always hold a monochromatic triple
    assert check_degree_witness(subset_category(), 1, 3, 5, 2, 1).ok
    # pairs over triangles need the classic c = 6, so 5 must fail
    assert check_degree_witness(subset_category(), 2, 3, 6, 2, 1).ok
    assert not check_degree_witness(subset_category(), 2, 3, 5, 2, 1).ok
    with pytest.raises(ValueError):
        check_degree_witness(subset_category(), 2, 3, 6, 2, -1)


def test_image_size_bound():
    bound, word = degree_upper_bound(1, 3, [DR])
    assert bound == 1 and word == (0,)
    bound2, word2 = degree_upper_bound(2, 3, [DR])
    assert bound2 == 1 and word2 == (0, 0)


def test_degree_bound_report_good_pool():
    rep = check_degree_bound((DR,), 1, 3, 2, range(0, 7))
    assert rep.bound == 1 and rep.degree.degree == 1
    assert rep.degree.degree <= rep.bound <= rep.trivial
    rep2 = check_degree_bound((DR,), 1, 3, 2, None)
    assert rep2.degree is None and rep2.bound == 1


def test_degree_bound_flags_starved_pool():
    # the true witness for (2, 4) needs c = 18; a pool up to 7 cannot see it
    with pytest.raises(AssertionError, match="missing a witness"):
        check_degree_bound((DR,), 2, 4, 2, range(0, 8))


def test_degree_monotone_in_colors():
    degs = [ramsey_degree(subset_category(), 1, 2, r, range(0, 7)).degree
            for r in (1, 2, 3)]
    assert degs == sorted(degs)


# ---------------------------------------------------------------------------
# the pseudorandom colorer


# (seed, sample, cell, r, color): fixed values of the sampling PRF, which
# every sampled certificate depends on
PINNED_PRF = [
    (0, 0, 0, 2, 1), (1729, 0, 0, 2, 1), (1729, 0, 1, 2, 0), (1729, 1, 0, 2, 0),
    (1729, 9999, 135, 2, 1), (7, 3, 119, 2, 0), (2 ** 63 + 5, 42, 17, 2, 1),
    (2 ** 64 + 3, 100, 4095, 2, 0), (1, 2, 3, 2, 1), (123456789, 5, 77, 2, 0),
    (1729, 500, 64, 2, 1), (99, 0, 1000, 2, 1), (1729, 1234, 56, 2, 1),
    (31337, 7, 7, 2, 1), (5, 8000, 2, 2, 0), (1729, 2, 999, 2, 0),
    (0, 0, 0, 3, 0), (1729, 0, 0, 3, 2), (1729, 0, 1, 3, 2), (1729, 1, 0, 3, 0),
    (1729, 9999, 135, 3, 0), (7, 3, 119, 3, 1), (2 ** 63 + 5, 42, 17, 3, 2),
    (2 ** 64 + 3, 100, 4095, 3, 1), (1, 2, 3, 3, 1), (123456789, 5, 77, 3, 0),
    (1729, 500, 64, 3, 1), (99, 0, 1000, 3, 1), (1729, 1234, 56, 3, 1),
    (31337, 7, 7, 3, 2), (5, 8000, 2, 3, 2), (1729, 2, 999, 3, 2),
    (0, 0, 0, 4, 3), (1729, 0, 0, 4, 1), (1729, 0, 1, 4, 2), (1729, 1, 0, 4, 0),
    (1729, 9999, 135, 4, 3), (7, 3, 119, 4, 2), (2 ** 63 + 5, 42, 17, 4, 1),
    (2 ** 64 + 3, 100, 4095, 4, 2), (1, 2, 3, 4, 1), (123456789, 5, 77, 4, 0),
    (1729, 500, 64, 4, 1), (99, 0, 1000, 4, 1), (1729, 1234, 56, 4, 3),
    (31337, 7, 7, 4, 3), (5, 8000, 2, 4, 0), (1729, 2, 999, 4, 2),
    (0, 0, 0, 5, 0), (1729, 0, 0, 5, 3), (1729, 0, 1, 5, 1), (1729, 1, 0, 5, 1),
    (1729, 9999, 135, 5, 4), (7, 3, 119, 5, 4), (2 ** 63 + 5, 42, 17, 5, 1),
    (2 ** 64 + 3, 100, 4095, 5, 3), (1, 2, 3, 5, 4), (123456789, 5, 77, 5, 0),
    (1729, 500, 64, 5, 1), (99, 0, 1000, 5, 0), (1729, 1234, 56, 5, 0),
    (31337, 7, 7, 5, 2), (5, 8000, 2, 5, 2), (1729, 2, 999, 5, 3),
]


def test_prf_color_values_are_pinned():
    assert len(PINNED_PRF) == 64
    got = [(seed, sample, cell, r, prf_color(seed, sample, cell, r))
           for seed, sample, cell, r, _ in PINNED_PRF]
    assert got == PINNED_PRF
    # a sampled coloring reads its cells through the same two steps
    for seed, sample, cell, r, color in PINNED_PRF[:16]:
        cex = Coloring(r=r, size=cell + 1, kind="sample", index=sample,
                       seed=seed)
        assert cex.cell(cell) == color


def test_prf_color_is_deterministic_and_in_range():
    vals = [prf_color(1729, s, j, 5) for s in range(4) for j in range(16)]
    again = [prf_color(1729, s, j, 5) for s in range(4) for j in range(16)]
    assert vals == again
    assert all(0 <= v < 5 for v in vals)
    assert len(set(vals)) > 1
    assert prf_color(1, 0, 0, 3) != prf_color(2, 0, 0, 3) or \
        prf_color(1, 0, 1, 3) != prf_color(2, 0, 1, 3)
