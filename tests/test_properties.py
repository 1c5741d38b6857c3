"""Law-level invariants checked over drawn inputs."""

from functools import partial

import pytest
from brute import (brute_canon_bytes, brute_first_failure,
                   brute_first_sampled_failure, brute_p_checks, brute_refutes)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramcat import (EncodingError, SearchBudget, SubsetCategory, canon_bytes,
                    canon_parse, check_p_witness, compose_word, engine, fiber,
                    functor_image, prf_color, ramsey_degree,
                    degree_upper_bound, subset_boundary, subset_category)
from ramcat.certificates import canonical_json
from ramcat.core import Category
from ramcat.engine import _first_sampled_failure, _lex_search

DR = subset_boundary()
DD = compose_word([DR, DR])
CAT = subset_category()

scalars = st.one_of(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.text(max_size=12))
values = st.recursive(scalars,
                      lambda kids: st.lists(kids, max_size=4).map(tuple),
                      max_leaves=12)


@given(values)
def test_canon_round_trip(value):
    assert canon_parse(canon_bytes(value)) == value


@given(values)
@example(())
@example((-(2 ** 63), 2 ** 63 - 1))
@example(((), (-(2 ** 63),), ("", 2 ** 63 - 1)))
def test_canon_bytes_matches_the_recursive_encoder(value):
    assert canon_bytes(value) == brute_canon_bytes(value)


in_range = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
refused = st.one_of(st.booleans(), st.integers(min_value=2 ** 63),
                    st.integers(max_value=-(2 ** 63) - 1))


@given(st.lists(in_range, max_size=4), refused, st.lists(in_range, max_size=4))
@example([], 2 ** 63, [])
@example([1], -(2 ** 63) - 1, [2])
@example([], True, [2 ** 63])
def test_flat_tuples_are_refused_as_the_recursive_encoder_refuses(
        before, bad, after):
    value = (*before, bad, *after)
    with pytest.raises(EncodingError) as want:
        brute_canon_bytes(value)
    with pytest.raises(EncodingError) as got:
        canon_bytes(value)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(
        ("booleans are not encodable payload values",
         "integer out of encodable range: "))


@given(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
       st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1))
def test_canon_int_encoding_preserves_order(a, b):
    assert (a < b) == (canon_bytes(a) < canon_bytes(b))


@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=6))
def test_fibers_partition_hom(a, b):
    hom = CAT.hom(a, b)
    pieces = [fiber(DR, a, b, m) for m in functor_image(DR, a, b)]
    seen = [f for piece in pieces for f in piece]
    assert sorted(f.key() for f in seen) == sorted(f.key() for f in hom)
    assert len(seen) == len(hom)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=1, max_value=2))
def test_witnesses_are_upward_closed(a, extra, r):
    b = a + extra
    oks = [check_p_witness(DR, a, b, c, r, mode="exhaustive").ok
           for c in range(b, 6)]
    assert oks == sorted(oks), f"witness set not upward closed: {oks}"


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=3),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=1, max_value=2))
def test_degree_monotone_in_color_count(b, pool_extra, r1):
    pool = range(0, b + pool_extra + 1)
    r2 = r1 + 1
    d1 = ramsey_degree(CAT, 1, b, r1, pool, mode="exhaustive").degree
    d2 = ramsey_degree(CAT, 1, b, r2, pool, mode="exhaustive").degree
    if d1 is None:
        assert d2 is None
    elif d2 is not None:
        assert d1 <= d2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=1, max_value=2))
def test_degree_never_exceeds_the_trivial_ceiling(a, extra, r):
    b = a + extra
    trivial = CAT.hom_size(a, b)
    deg = ramsey_degree(CAT, a, b, r, range(0, 7), mode="exhaustive")
    if deg.degree is not None:
        assert deg.degree <= max(trivial, 1)
    bound, _ = degree_upper_bound(a, b, DR)
    assert bound <= trivial
    if trivial:
        assert bound >= 1


def _cells(rows, groups):
    """The oracles' checks: each row's groups carried to cells."""
    return [tuple(tuple(row[i] for i in grp) for grp in groups)
            for row in rows]


def _rows_and_groups(draw, n: int, min_group: int):
    """Action rows of up to four cells < n (none when n = 0, so rows are
    then empty), and groups of their positions, shared by every row."""
    width = draw(st.integers(min_value=0, max_value=4 if n else 0))
    cell = st.integers(min_value=0, max_value=max(n - 1, 0))
    rows = st.lists(st.lists(cell, min_size=width, max_size=width).map(tuple),
                    max_size=5)
    group = (st.lists(st.integers(min_value=0, max_value=width - 1),
                      min_size=min_group, max_size=4).map(tuple) if width
             else st.just(()))
    return draw(rows), draw(st.lists(group, max_size=3).map(tuple))


@st.composite
def search_instances(draw):
    """r, n, cap, action rows into n cells and their shared groups; groups,
    rows and their widths may be empty."""
    r = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=0, max_value=8))
    cap = draw(st.integers(min_value=0, max_value=2))
    return (r, n, cap) + _rows_and_groups(draw, n, 0)


@settings(max_examples=200, deadline=None)
@given(search_instances())
@example((2, 0, 1, [], ()))
@example((2, 0, 0, [()], ()))
@example((3, 4, 1, [], ()))
# a check reading no cell passes everything; one reading a cell under cap 0
# fails everything
@example((2, 4, 0, [(0, 1), (2, 3)], ((), ())))
@example((2, 4, 0, [(0, 1)], ((0, 1), ())))
# the first check's empty group, under cap 1, is the one-color group (4, 4)
@example((3, 5, 1, [(4, 4, 4, 2), (1, 3, 0, 4)], ((0, 1), (2, 3))))
def test_search_finds_the_least_failing_index(inst):
    r, n, cap, rows, groups = inst
    assert (_lex_search(r, n, rows, groups, cap, None)[0]
            == brute_first_failure(r, n, _cells(rows, groups), cap))


@settings(max_examples=200, deadline=None)
@given(search_instances(), st.integers(min_value=0, max_value=60))
def test_node_capped_search_finishes_or_gives_up(inst, limit):
    r, n, cap, rows, groups = inst
    full = _lex_search(r, n, rows, groups, cap, None)
    assert _lex_search(r, n, rows, groups, cap, limit) == (
        full if full[1] <= limit else None)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=8))
def test_subset_action_is_the_composed_table(a, b, c):
    assert list(CAT.action(a, b, c)) == Category.action(CAT, a, b, c)


@st.composite
def sampled_instances(draw):
    """(seed, r, n, rows, groups, samples): rows into n cells and non-empty
    groups of up to four of their positions, so a check under cap 1 or 2
    fails often enough to matter."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 64))
    r = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=10))
    rows, groups = _rows_and_groups(draw, n, 1)
    return seed, r, n, rows, groups, draw(st.integers(min_value=1,
                                                      max_value=40))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("cap", [1, 2])
@settings(max_examples=40, deadline=None)
@given(sampled_instances())
@example((1729, 2, 3, [], (), 5))
@example((0, 3, 4, [(0, 1, 2, 3)], ((0, 1, 2, 3),), 30))
def test_sampled_scan_finds_the_least_failing_sample(cap, jobs, inst):
    seed, r, n, rows, groups, samples = inst
    source = partial(iter, rows)
    assert (_first_sampled_failure(seed, r, n, source, groups, cap, samples,
                                   jobs)
            == brute_first_sampled_failure(seed, r, n, _cells(rows, groups),
                                           cap, samples))


@pytest.mark.parametrize("jobs", [1, 2])
@settings(max_examples=25, deadline=None)
@given(st.sampled_from([DR, DD]), st.integers(min_value=1, max_value=2),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2 ** 64),
       st.integers(min_value=1, max_value=30))
@example(DD, 2, 1, 2, 2, 3, 30)      # (2, 3, 5): fails at sample 1
@example(DD, 2, 1, 3, 2, 1729, 30)   # (2, 3, 6): passes every sample
def test_sampled_check_matches_a_scan_of_every_check(jobs, delta, a, up, out,
                                                     r, seed, samples):
    b, c = a + up, a + up + out
    res = check_p_witness(delta, a, b, c, r, mode="sampled", seed=seed,
                          samples=samples, jobs=jobs)
    checks = brute_p_checks(delta, a, b, c)
    n = CAT.hom_size(a, c)
    hit = brute_first_sampled_failure(seed, r, n, checks, 1, samples)
    assert (res.ok, res.arrows) == (hit is None, len(checks))
    assert res.checked == (samples if hit is None else hit + 1)
    if hit is None:
        assert res.counterexample is None
    else:
        cex = res.counterexample
        assert (cex.kind, cex.index, cex.seed) == ("sample", hit, seed)
        assert cex.cells == tuple(prf_color(seed, hit, j, r) for j in range(n))


class _Moved(SubsetCategory):
    """Subsets whose moves are the given groups of hom(a, c) permutations,
    symmetries or not, whatever a and c are."""

    def __init__(self, groups):
        self.groups = groups

    def moves(self, a, c):
        return self.groups


def _falsified(delta, a, b, c, r):
    """The auto verdict when the node-capped search gives up at once, so the
    falsifier runs on any claim past a one-coloring budget."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "SEARCH_MAX_NODES", 0)
        return check_p_witness(delta, a, b, c, r, samples=5,
                               budget=SearchBudget(max_colorings=1))


def _move_groups(n: int):
    perm = st.permutations(range(n)).map(tuple)
    return st.lists(st.lists(perm, max_size=3).map(tuple), max_size=3).map(
        lambda groups: tuple((f"g{i}", gens) for i, gens in enumerate(groups)))


@st.composite
def moved_claims(draw):
    """(twice, a, b, c, r, groups): dR or dR∘dR at a small (a, b, c), with up
    to three groups of arbitrary permutations of hom(a, c)."""
    a = draw(st.integers(min_value=1, max_value=2))
    b = a + draw(st.integers(min_value=0, max_value=2))
    c = b + draw(st.integers(min_value=0, max_value=3))
    groups = draw(_move_groups(CAT.hom_size(a, c)))
    return (draw(st.booleans()), a, b, c,
            draw(st.integers(min_value=1, max_value=3)), groups)


@settings(max_examples=60, deadline=None)
@given(moved_claims())
@example((True, 2, 3, 5, 2, (("shift", CAT.moves(2, 5)[0][1]),)))
def test_orbit_verdicts_are_refuted_by_brute_force(claim):
    twice, a, b, c, r, groups = claim
    delta = subset_boundary(_Moved(groups))
    if twice:
        delta = compose_word([delta, delta])
    res = _falsified(delta, a, b, c, r)
    if res.group is not None:
        assert res.group in dict(groups)
        assert not res.ok and not res.exhaustive and not res.probabilistic
        assert res.counterexample.kind == "orbit"
        assert brute_refutes(brute_p_checks(delta, a, b, c),
                             res.counterexample.cells)


@settings(max_examples=30, deadline=None)
@given(_move_groups(CAT.hom_size(2, 6)))
@example((("shift", CAT.moves(2, 6)[0][1]),))
def test_the_falsifier_never_fails_a_true_claim(groups):
    # R(3,3) = 6: dR∘dR at (2,3,6) r=2 holds whatever the moves are
    dr = subset_boundary(_Moved(groups))
    res = _falsified(compose_word([dr, dr]), 2, 3, 6, 2)
    assert res.ok and res.group is None


@given(st.integers(min_value=0, max_value=2 ** 32),
       st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=64))
def test_prf_color_deterministic_and_in_range(seed, sample, cell, r):
    v = prf_color(seed, sample, cell, r)
    assert v == prf_color(seed, sample, cell, r)
    assert 0 <= v < r


@given(st.dictionaries(st.text(max_size=6),
                       st.one_of(st.integers(), st.text(max_size=6),
                                 st.lists(st.integers(), max_size=3)),
                       max_size=6))
def test_canonical_json_ignores_insertion_order(d):
    flipped = dict(reversed(list(d.items())))
    assert canonical_json(d) == canonical_json(flipped)
