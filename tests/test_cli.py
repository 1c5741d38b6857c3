"""End-to-end command-line behavior through main(argv)."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from ramcat import (Claim, ProductCategory, SearchBudget, SubsetCategory,
                    dump_certificate, load_certificate, replay_verify)
from ramcat.categories import TreeCategory, WordCategory
from ramcat.certificates import Trace, canonical_json, document_digest
from ramcat.cli import _THEOREMS, budget_from, build_parser, main
from ramcat.core import canon_hex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbid_hom(monkeypatch, cls):
    """Building any hom-set of cls fails: a budget refusal must come first."""
    def built(self, a, b):
        raise AssertionError(f"{cls.__name__}.hom({a!r}, {b!r}) was built")
    monkeypatch.setattr(cls, "hom", built)


def within_cap(hom, cap):
    """hom, failing on any hom-set past cap: a refusal must come first."""
    def built(self, a, b):
        if self.hom_size(a, b) > cap:
            raise AssertionError(f"hom({a!r}, {b!r}) was built past the cap")
        return hom(self, a, b)
    return built


def forbid_check(self, **kw):
    raise AssertionError("the claim was checked: construction did not refuse")


# ---------------------------------------------------------------------------
# verify


def test_verify_pass(capsys):
    code, out, err = run(capsys, "verify", "p", "--category", "R",
                         "--functor", "dR", "--a", "2", "--b", "3",
                         "--c", "4", "--r", "2")
    assert code == 0
    assert out.startswith("pass [exhaustive]")
    assert "cells=6 arrows=4" in out


def test_verify_fail_prints_counterexample(capsys):
    code, out, err = run(capsys, "verify", "p", "--category", "R",
                         "--functor", "dR,dR", "--a", "2", "--b", "3",
                         "--c", "5", "--r", "2")
    assert code == 1
    assert out.startswith("FAIL [exhaustive]")
    assert "counterexample: index=220 colors=[0, 0, 1, 1, 1, 0, 1, 1, 0, 0]" \
        in out


def test_verify_one_color_is_trivial(capsys):
    code, out, _ = run(capsys, "verify", "p", "--category", "R",
                       "--functor", "dR", "--a", "2", "--b", "3",
                       "--c", "3", "--r", "1")
    assert code == 0 and out.startswith("pass")


def test_verify_step_category_pigeonhole_value(capsys):
    code, out, _ = run(capsys, "verify", "p", "--category", "P",
                       "--functor", "dP", "--a", "2:1", "--b", "3:2",
                       "--c", "6:2", "--r", "2")
    assert code == 0 and out.startswith("pass [exhaustive]")


def test_verify_word_category_sampled(capsys):
    code, out, _ = run(capsys, "verify", "p", "--category", "HJ",
                       "--functor", "dHJ", "--a", "v:1,2", "--b", "l:1",
                       "--c", "l:6", "--r", "2", "--samples", "300",
                       "--mode", "sampled")
    assert code == 0
    assert out.startswith("pass [sampled(seed=1729)]")
    assert "cells=64 arrows=665" in out


def test_verify_word_category_auto_is_decided_by_search(capsys):
    code, out, _ = run(capsys, "verify", "p", "--category", "HJ",
                       "--functor", "dHJ", "--a", "v:1,2", "--b", "l:1",
                       "--c", "l:6", "--r", "2", "--samples", "300")
    assert code == 0
    assert out.startswith("pass [exhaustive]")
    assert "cells=64 arrows=665 nodes=" in out


def test_search_decided_line_prints_nodes_not_colorings(capsys):
    # 2**21 colorings, over the default budget: the search proves it
    code, out, _ = run(capsys, "verify", "p", "--category", "R",
                       "--functor", "dR,dR", "--a", "2", "--b", "3",
                       "--c", "7", "--r", "2")
    assert code == 0
    assert out == "pass [exhaustive] cells=21 arrows=35 nodes=325\n"
    assert max(map(len, re.findall(r"\d+", out))) <= 19


def test_verify_trees(capsys):
    code, out, _ = run(capsys, "verify", "p", "--category", "trees",
                       "--functor", "dT", "--a", "1,0", "--b", "2,0,0",
                       "--c", "6,0,0,0,0,0,0", "--r", "2")
    assert code == 0 and out.startswith("pass [exhaustive]")


def test_verify_fp_autoderives_for_plain_subsets(capsys):
    code, out, _ = run(capsys, "verify", "fp", "--category", "R",
                       "--functor", "dR", "--a", "1", "--b", "2",
                       "--c", "6", "--r", "2")
    assert code == 0 and out.startswith("pass [exhaustive]")
    code, _, err = run(capsys, "verify", "fp", "--category", "trees",
                       "--functor", "dT", "--a", "1,0", "--b", "2,0,0",
                       "--c", "6,0,0,0,0,0,0", "--r", "2")
    assert code == 64 and "--f-prime" in err


@pytest.mark.parametrize("a, b, c", [(2, 2, 4), (0, 2, 5)])
def test_verify_fp_retargets_g_prime_over_trivial_homs(capsys, a, b, c):
    # hom(a, b) has one arrow, so g' is the prefix inclusion [b-1] -> [c-1]
    code, out, _ = run(capsys, "verify", "fp", "--category", "R",
                       "--functor", "dR", "--a", str(a), "--b", str(b),
                       "--c", str(c), "--r", "2")
    assert code == 0 and out.startswith("pass [exhaustive]")


def test_verify_fp_explicit_picks_match_the_canonical_ones(capsys, tmp_path):
    # the hexes are the canonical subset picks at (1, 2, 6), r = 2
    argv = ("verify", "fp", "--category", "R", "--functor", "dR", "--a", "1",
            "--b", "2", "--c", "6", "--r", "2")
    auto, explicit = tmp_path / "auto.json", tmp_path / "explicit.json"
    code, _, _ = run(capsys, *argv, "--out", str(auto))
    assert code == 0
    code, out, _ = run(
        capsys, *argv, "--f-prime",
        "54000000034980000000000000004980000000000000015400000000",
        "--g-prime", "54000000034980000000000000014980000000000000055400000001"
        "498000000000000001", "--out", str(explicit))
    assert code == 0
    assert out == ("pass [exhaustive] cells=6 arrows=15 colorings_checked=64\n"
                   f"certificate written to {explicit}\n")
    assert explicit.read_bytes() == auto.read_bytes()


def test_verify_fp_picks_from_the_parsed_functor(capsys, tmp_path):
    # the word is read as verify p reads it, blanks around a token included
    argv = ("verify", "fp", "--category", "R", "--a", "1", "--b", "2",
            "--c", "6", "--r", "2")
    plain, padded = tmp_path / "plain.json", tmp_path / "padded.json"
    assert run(capsys, *argv, "--functor", "dR", "--out", str(plain))[0] == 0
    code, out, _ = run(capsys, *argv, "--functor", " dR", "--out", str(padded))
    assert code == 0 and out.startswith("pass [exhaustive]")
    assert padded.read_bytes() == plain.read_bytes()
    # a longer word is not the subset boundary itself: no canonical picks
    code, _, err = run(capsys, *argv, "--functor", "dR,dR")
    assert code == 64 and "--f-prime" in err


# Morph(1, 2, (2,)): a real arrow of hom(1, 2), though not in the image of dR
_F_HEX = canon_hex((1, 2, (2,)))


_P_TAKES_NO = "verify p takes no --s, --f-prime or --g-prime"
_FP_PAIRS = "verify fp takes --f-prime and --g-prime together"


@pytest.mark.parametrize("kind, flags, named", [
    ("p", ("--s", _F_HEX), _P_TAKES_NO),
    ("p", ("--f-prime", _F_HEX), _P_TAKES_NO),
    ("p", ("--g-prime", "zz"), _P_TAKES_NO),
    ("p", ("--f-prime", _F_HEX, "--g-prime", "zz"), _P_TAKES_NO),
    ("fp", ("--f-prime", _F_HEX), _FP_PAIRS),
    ("fp", ("--g-prime", _F_HEX), _FP_PAIRS)],
    ids=["p-s", "p-f-prime", "p-g-prime", "p-both", "fp-f-prime-alone",
         "fp-g-prime-alone"])
def test_verify_refuses_flags_it_would_drop(capsys, monkeypatch, kind, flags,
                                            named):
    forbid_hom(monkeypatch, SubsetCategory)
    # sizing a hom-set fails as building one does: the refusal comes first
    monkeypatch.setattr(SubsetCategory, "hom_size", SubsetCategory.hom)
    code, out, err = run(capsys, "verify", kind, "--category", "R",
                         "--functor", "dR", "--a", "1", "--b", "2",
                         "--c", "6", "--r", "2", *flags)
    assert code == 64 and not out
    assert err.startswith(f"usage error: {named}\n")


def test_verify_non_objects_are_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "p", "--category", "P",
                       "--functor", "dP", "--a", "2:1", "--b", "9:9",
                       "--c", "3:2", "--r", "2")
    assert code == 64 and "(9, 9) is not an object" in err
    code, _, err = run(capsys, "verify", "p", "--category", "HJ",
                       "--functor", "dHJ", "--a", "v:1,9", "--b", "l:2",
                       "--c", "l:3", "--r", "2")
    assert code == 64 and "('V', (1, 9)) is not an object" in err


# ---------------------------------------------------------------------------
# usage and budget errors


def test_unknown_category_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "p", "--category", "Q",
                       "--functor", "dR", "--a", "1", "--b", "2",
                       "--c", "3", "--r", "2")
    assert code == 64 and "usage error" in err


@pytest.mark.parametrize("selector, functor, objs", [
    ("R:9", "dR", ("1", "2", "6")),
    ("trees:zz", "dT", ("1,0", "2,0,0", "6,0,0,0,0,0,0"))])
def test_selector_arguments_a_category_does_not_read_are_refused(
        capsys, selector, functor, objs):
    a, b, c = objs
    code, out, err = run(capsys, "verify", "p", "--category", selector,
                         "--functor", functor, "--a", a, "--b", b,
                         "--c", c, "--r", "2")
    assert code == 64 and not out
    assert err.startswith(f"usage error: {selector.partition(':')[0]} takes "
                          f"no argument, got {selector!r}\n")


def test_verify_needs_functor(capsys):
    code, _, err = run(capsys, "verify", "p", "--category", "R",
                       "--a", "1", "--b", "2", "--c", "3", "--r", "2")
    assert code == 64 and "usage error: verify needs --functor" in err


def test_unknown_functor_token(capsys):
    code, _, err = run(capsys, "verify", "p", "--category", "R",
                       "--functor", "dX", "--a", "1", "--b", "2",
                       "--c", "3", "--r", "2")
    assert code == 64 and "unknown functor token" in err


def test_exhaustive_over_budget_refuses(capsys):
    code, _, err = run(capsys, "verify", "p", "--category", "R",
                       "--functor", "dR", "--a", "2", "--b", "3",
                       "--c", "4", "--r", "2", "--mode", "exhaustive",
                       "--max-colorings", "10")
    assert code == 2 and "budget refusal" in err


def test_exhaustive_over_budget_refuses_before_any_hom(capsys, monkeypatch):
    # 2**7140 colorings: the refusal comes before hom(3, 120)'s 280,840 rows
    forbid_hom(monkeypatch, SubsetCategory)
    code, _, err = run(capsys, "verify", "p", "--category", "R",
                       "--functor", "dR,dR", "--a", "2", "--b", "3",
                       "--c", "120", "--r", "2", "--mode", "exhaustive")
    assert code == 2 and "budget refusal: colorings" in err


def test_coloring_budget_refusal_is_short(capsys):
    # 2**7140 has 2,150 digits; the refusal names the power instead
    code, _, err = run(capsys, "verify", "p", "--category", "R",
                       "--functor", "dR,dR", "--a", "2", "--b", "3",
                       "--c", "120", "--r", "2", "--mode", "exhaustive")
    assert code == 2
    line, = err.splitlines()
    assert "2**7140" in line and len(line) < 200


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("RAMCAT_MAX_COLORINGS", "10")
    code, _, err = run(capsys, "verify", "p", "--category", "R",
                       "--functor", "dR", "--a", "2", "--b", "3",
                       "--c", "4", "--r", "2", "--mode", "exhaustive")
    assert code == 2 and "budget refusal" in err


def test_compose_hom_blowup_is_a_refusal(capsys):
    code, _, err = run(capsys, "construct", "--theorem", "compose",
                       "--k", "2", "--l", "3", "--length", "2", "--r", "2")
    assert code == 2 and "budget refusal" in err


# ---------------------------------------------------------------------------
# construct


def test_construct_fp2p(capsys):
    code, out, _ = run(capsys, "construct", "--theorem", "fp2p",
                       "--k", "1", "--l", "2", "--r", "2")
    assert code == 0
    assert "constructed witness: 6" in out
    assert "pass [exhaustive]" in out


def test_construct_r_fp(capsys):
    code, out, _ = run(capsys, "construct", "--theorem", "r-fp",
                       "--k", "1", "--l", "2", "--r", "2")
    assert code == 0
    assert "constructed witness: 6" in out


@pytest.mark.parametrize("orientation", ["definition", "mirror"])
def test_construct_pigeonhole(capsys, orientation):
    code, out, _ = run(capsys, "construct", "--theorem", "p-pigeonhole",
                       "--k1", "2", "--l", "2", "--r", "2",
                       "--orientation", orientation)
    assert code == 0
    assert "constructed witness: (4, 2)" in out
    assert "pass [exhaustive]" in out


def test_construct_compose(capsys):
    code, out, _ = run(capsys, "construct", "--theorem", "compose",
                       "--k", "1", "--l", "2", "--length", "2", "--r", "2")
    assert code == 0
    assert "constructed witness: 6" in out
    assert "pass [exhaustive]" in out


def test_construct_product(capsys, tmp_path):
    cert = tmp_path / "product.json"
    code, out, _ = run(capsys, "construct", "--theorem", "product",
                       "--coords", "1:2,1:2", "--r", "2",
                       "--samples", "20", "--out", str(cert))
    assert code == 0
    assert "constructed witness: (130, 6)" in out
    assert "pass [sampled(seed=1729)]" in out
    doc = load_certificate(cert)
    assert doc["theorem"] == "product"
    assert doc["trace"]["stages"][0]["m_exponent"] == 6


def test_construct_modeling(capsys):
    code, out, _ = run(capsys, "construct", "--theorem", "modeling",
                       "--k", "1", "--l", "1", "--r", "2", "--samples", "300")
    assert code == 0
    assert "constructed witness: ('L', 6)" in out


def test_construct_hj(capsys):
    code, out, _ = run(capsys, "construct", "--theorem", "hj",
                       "--k", "1", "--l", "1", "--r", "2", "--samples", "300")
    assert code == 0
    assert "constructed witness: 6" in out


def test_construct_fouche(capsys):
    code, out, _ = run(capsys, "construct", "--theorem", "fouche", "--r", "2")
    assert code == 0
    assert "constructed witness: (6, 0, 0, 0, 0, 0, 0)" in out
    assert "pass [exhaustive]" in out


def _rendered_fields(record, doc):
    """doc holds exactly record's non-empty facts by name, kind among them
    where the record has one, and so, recursively, does each nested record."""
    shown = {k: v for k, v in vars(record).items()
             if v is not None and v != {}}
    assert set(doc) == set(shown)
    for name, value in shown.items():
        pairs = (zip(value, doc[name]) if isinstance(value, tuple)
                 else [(value, doc[name])])
        for item, rendered in pairs:
            if isinstance(item, Trace):
                _rendered_fields(item, rendered)


def _dicts(value):
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _dicts(item)


@pytest.mark.parametrize("theorem", sorted(_THEOREMS))
def test_trace_records_render_their_fields(capsys, tmp_path, theorem):
    argv = ["construct", "--theorem", theorem, "--r", "2"]
    cert = tmp_path / "t.json"
    code, _, _ = run(capsys, *argv, "--out", str(cert))
    assert code == 0
    trace = load_certificate(cert)["trace"]
    args = build_parser().parse_args(argv)
    record = _THEOREMS[theorem](args, budget_from(args))[2]
    if record is None:
        assert trace is None
        return
    _rendered_fields(record, trace)
    # a stage's number is its position; a product's colors are r**m_exponent
    stale = {"index", "stage", "coordinate", "colors", "base_colors"}
    assert not any(stale & set(d) for d in _dicts(trace))


def test_word_trace_lists_its_stages_outer_to_inner(capsys, tmp_path):
    cert = tmp_path / "compose.json"
    code, _, _ = run(capsys, "construct", "--theorem", "compose",
                     "--length", "3", "--r", "2", "--out", str(cert))
    assert code == 0
    stages = load_certificate(cert)["trace"]["stages"]
    assert [st["a"] for st in stages] == [1, 0, 0]
    # each outer stage lifts the witness of the stage inside it
    assert ([st.get("lifted_from") for st in stages]
            == [st["witness"] for st in stages[1:]] + [None])
    assert stages[0]["witness"] == 6


def test_modeling_relation_sweep_refuses_before_building(capsys, monkeypatch):
    # hom(d2, d3) has about 8.9e28 arrows here
    forbid_hom(monkeypatch, ProductCategory)
    code, _, err = run(capsys, "construct", "--theorem", "modeling",
                       "--k", "2", "--l", "2", "--r", "2", "--max-pairs", "10")
    assert code == 2, err
    assert "budget refusal: hom-set size" in err and "cap 2000000" in err


@pytest.mark.parametrize("theorem", ["modeling", "hj"])
def test_relation_sweeps_honour_max_hom_size(capsys, monkeypatch, theorem):
    forbid_hom(monkeypatch, ProductCategory)
    code, _, err = run(capsys, "construct", "--theorem", theorem,
                       "--k", "2", "--l", "2", "--r", "2",
                       "--max-hom-size", "1000")
    assert code == 2, err
    assert "budget refusal: hom-set size" in err
    head, _, where = err.rstrip().partition(", cap 1000 at hom(")
    assert head and where.endswith(")")


def test_fp_recursion_refusal_names_the_hom_set(capsys):
    code, out, err = run(capsys, "construct", "--theorem", "fp2p", "--k", "2",
                         "--l", "40", "--r", "2")
    assert code == 2 and not out
    assert err.rstrip().endswith(
        "hom-set size: need 5247180, cap 2000000 at hom(2, 3240)")


@pytest.mark.parametrize("coords, r, exp", [
    ("1:2,1:2,1:2", "2", 235), ("1:2,1:2", "5000", 36997)],
    ids=["236-digit", "past-4300-digits"])
def test_fp_recursion_refuses_its_last_stage_in_few_bytes(capsys, coords, r,
                                                          exp):
    code, out, err = run(capsys, "construct", "--theorem", "product",
                         "--coords", coords, "--r", r, "--samples", "20")
    assert code == 2 and not out
    assert err == (f"budget refusal: hom-set size: need at least 10**{exp}, "
                   f"cap 2000000 at hom(1, at least 10**{exp})\n")
    assert len(err.encode()) < 200


@pytest.mark.parametrize("argv", [
    ("verify", "fp", "--category", "R", "--functor", "dR", "--a", "3",
     "--b", "250", "--c", "251"),
    ("construct", "--theorem", "r-fp", "--k", "3", "--l", "250")],
    ids=["verify", "construct"])
def test_fiber_claims_refuse_hom_ab_before_building_it(capsys, monkeypatch,
                                                       argv):
    # the default s is the image of hom(a, b)
    forbid_hom(monkeypatch, SubsetCategory)
    code, out, err = run(capsys, *argv, "--r", "2", "--max-hom-size", "100")
    assert code == 2, err
    assert "hom-set size: need 2573000, cap 100" in err and not out


@pytest.mark.parametrize("theorem, cap, need", [
    ("fp2p", None, 5_247_180), ("compose", None, 5_073_705),
    ("fp2p", "1000", 7140)])
def test_fp_recursion_refuses_growing_stages(capsys, theorem, cap, need):
    # each stage triples c, and the oracle's g carries one entry per point
    # of c: a refusal at the run's hom-size cap, not a MemoryError
    flags = ("--max-hom-size", cap) if cap else ()
    code, out, err = run(capsys, "construct", "--theorem", theorem, "--k", "2",
                         "--l", "40", "--r", "2", *flags)
    assert code == 2, err
    assert f"hom-set size: need {need}, cap {cap or 2000000}" in err
    assert not out


@pytest.mark.parametrize("theorem, flags", [
    ("product", ("--max-color-bits", "3")),
    ("modeling", ("--max-color-bits", "1")),
    ("hj", ("--max-color-bits", "1")),
    ("fouche", ("--s-tree", "2,0,0", "--t-tree", "3,0,0,0",
                "--max-color-bits", "1"))])
def test_every_staged_product_obeys_max_color_bits(capsys, monkeypatch,
                                                   theorem, flags):
    # a run that reached its check would end in exit 1, not a refusal
    monkeypatch.setattr(Claim, "check", forbid_check)
    code, out, err = run(capsys, "construct", "--theorem", theorem, "--r", "2",
                         "--samples", "20", *flags)
    assert code == 2, err
    assert "color bits" in err and not out


@pytest.mark.parametrize("theorem", [
    "fp2p", "r-fp", "compose", "product", "modeling", "hj", "fouche"])
def test_every_construction_obeys_max_hom_size(capsys, monkeypatch, theorem):
    # p-pigeonhole builds no hom-set: only its check can refuse
    monkeypatch.setattr(Claim, "check", forbid_check)
    for cls in (SubsetCategory, ProductCategory, TreeCategory, WordCategory):
        monkeypatch.setattr(cls, "hom", within_cap(cls.hom, 1))
    code, out, err = run(capsys, "construct", "--theorem", theorem, "--r", "2",
                         "--k", "1", "--l", "2", "--max-hom-size", "1")
    assert code == 2, err
    assert "budget refusal: hom-set size" in err and not out


@pytest.mark.parametrize("dim, power", [(2000, 954), (10000, 4771)])
def test_huge_hom_refusal_is_short(capsys, dim, power):
    # |hom(l:1, l:dim)| = 3**dim - 2**dim
    code, out, err = run(capsys, "verify", "p", "--category", "HJ",
                         "--functor", "dHJ", "--a", "v:1,2", "--b", "l:1",
                         "--c", f"l:{dim}", "--r", "2")
    assert code == 2 and not out
    line, = err.splitlines()
    assert f"hom-set size: need at least 10**{power}, cap 2000000" in line
    assert len(line.encode()) < 200


def test_construct_bad_coords(capsys, monkeypatch):
    forbid_hom(monkeypatch, SubsetCategory)
    # sizing a hom-set fails as building one does: the refusal comes first
    monkeypatch.setattr(SubsetCategory, "hom_size", SubsetCategory.hom)
    # a pair is read in full or refused: 1:2:9 is not read as 1:2
    for coords in ("nope", "1:2:9,1:2", "1:2,1", "1:2,", ":"):
        code, out, err = run(capsys, "construct", "--theorem", "product",
                             "--coords", coords, "--r", "2")
        assert code == 64 and not out
        assert err.startswith(f"usage error: --coords reads k:p pairs, "
                              f"got {coords!r}\n")


# ---------------------------------------------------------------------------
# degree


def test_degree_bound_report(capsys):
    code, out, _ = run(capsys, "degree", "--a", "1", "--b", "3", "--r", "2",
                       "--pool", "0..6", "--bound")
    assert code == 0
    assert "image-size bound 1 via word (0,) (trivial bound 3)" in out
    assert "degree 1 witness 5 (pool attempts: 6)" in out


@pytest.mark.parametrize("a, b, pool", [("2", "3", "0..2"), ("2", "4", "0..7"),
                                        ("1", "3", "0..6"), ("1", "3", "0..4")])
def test_degree_bound_only_adds_its_line(capsys, a, b, pool):
    # one degree path: --bound prints its line, then the pool search as is,
    # also when the pool holds no witness at the bound or none at all
    argv = ("degree", "--a", a, "--b", b, "--r", "2", "--pool", pool)
    code, out, _ = run(capsys, *argv)
    bound_code, bound_out, _ = run(capsys, *argv, "--bound")
    line, _, rest = bound_out.partition("\n")
    assert line.startswith("image-size bound ") and rest == out
    assert bound_code == code


def test_degree_takes_no_delta_flag(capsys):
    # each category offers one boundary functor, which --bound always uses
    code, _, err = run(capsys, "degree", "--a", "1", "--b", "2", "--r", "2",
                       "--bound", "--delta", "dR")
    assert code == 64 and "unrecognized arguments: --delta dR" in err


def test_degree_bound_defaults_to_the_category_boundary(capsys):
    code, out, _ = run(capsys, "degree", "--category", "P", "--a", "2:1",
                       "--b", "3:2", "--r", "2", "--bound")
    assert code == 0
    assert "image-size bound 1 via word (0,) (trivial bound 2)" in out


def test_degree_bound_non_object_is_usage_error(capsys):
    code, out, err = run(capsys, "degree", "--category", "P", "--a", "9:9",
                         "--b", "3:2", "--r", "2", "--bound")
    assert code == 64 and "(9, 9) is not an object" in err
    assert "image-size bound" not in out


def test_degree_search_non_object_is_usage_error(capsys):
    code, _, err = run(capsys, "degree", "--a", "-1", "--b", "2", "--r", "2",
                       "--pool", "0..3")
    assert code == 64 and "-1 is not an object" in err


@pytest.mark.parametrize("mode", [("--pool", "120..120"), ("--bound",)],
                         ids=["search", "bound"])
def test_degree_refuses_large_homs_before_building(capsys, monkeypatch, mode):
    forbid_hom(monkeypatch, SubsetCategory)
    code, out, err = run(capsys, "degree", "--a", "3", "--b", "120",
                         "--r", "2", *mode, "--max-hom-size", "10")
    assert code == 2, err
    assert "hom-set size: need 280840, cap 10" in err and not out


def test_degree_search(capsys):
    code, out, _ = run(capsys, "degree", "--a", "2", "--b", "3", "--r", "2",
                       "--pool", "0..7")
    assert code == 0
    assert "degree 1 witness 6 (pool attempts: 7)" in out


def test_degree_search_reads_its_pool_lazily(capsys):
    # a pool too long for len() is read only up to its witness
    code, out, _ = run(capsys, "degree", "--a", "2", "--b", "3", "--r", "2",
                       "--pool", "0..10000000000000000000")
    assert code == 0
    assert "degree 1 witness 6 (pool attempts: 7)" in out


def test_degree_search_without_a_forcing_pool_object(capsys):
    code, out, _ = run(capsys, "degree", "--a", "2", "--b", "3", "--r", "2",
                       "--pool", "0..2")
    assert (code, out) == (1, "no pool object forces any color cap\n")


def test_degree_search_needs_pool(capsys):
    code, _, err = run(capsys, "degree", "--a", "1", "--b", "2", "--r", "2")
    assert code == 64 and "needs --pool" in err


def test_degree_bound_refuses_a_negative_word_cap(capsys, monkeypatch):
    forbid_hom(monkeypatch, SubsetCategory)
    monkeypatch.setattr(SubsetCategory, "hom_size", SubsetCategory.hom)
    code, out, err = run(capsys, "degree", "--a", "1", "--b", "3", "--r", "2",
                         "--bound", "--word-cap", "-1")
    assert code == 64 and not out
    assert "word_cap must be at least 0, got -1" in err


def test_degree_bad_pool_spec(capsys, monkeypatch):
    code, _, err = run(capsys, "degree", "--a", "1", "--b", "2", "--r", "2",
                       "--pool", "5")
    assert code == 64 and "--pool reads lo..hi" in err
    # an empty pool is refused before any hom-set is sized, not searched
    forbid_hom(monkeypatch, SubsetCategory)
    monkeypatch.setattr(SubsetCategory, "hom_size", SubsetCategory.hom)
    for mode in ((), ("--bound",)):
        code, out, err = run(capsys, "degree", "--a", "2", "--b", "3",
                             "--r", "2", "--pool", "7..0", *mode)
        assert code == 64 and not out
        assert err.startswith("usage error: --pool lo..hi needs lo <= hi, "
                              "got '7..0'\n")


# ---------------------------------------------------------------------------
# replay


def test_replay_round_trip(capsys, tmp_path):
    cert = tmp_path / "p.json"
    code, out, _ = run(capsys, "verify", "p", "--category", "R",
                       "--functor", "dR", "--a", "2", "--b", "3",
                       "--c", "4", "--r", "2", "--out", str(cert))
    assert code == 0 and f"certificate written to {cert}" in out
    code, out, _ = run(capsys, "replay", str(cert))
    assert code == 0
    assert "stored verdict pass, replay verdict pass" in out


def test_replay_failing_certificate(capsys, tmp_path):
    cert = tmp_path / "fail.json"
    code, _, _ = run(capsys, "verify", "p", "--category", "R",
                     "--functor", "dR,dR", "--a", "2", "--b", "3",
                     "--c", "5", "--r", "2", "--out", str(cert))
    assert code == 1
    code, out, _ = run(capsys, "replay", str(cert))
    assert code == 1
    assert "stored verdict fail, replay verdict fail" in out
    assert "MISMATCH" not in out


def test_replay_mismatch(capsys, tmp_path):
    # 300 samples find a failing coloring at sample 289; 100 do not
    cert = tmp_path / "s.json"
    code, _, _ = run(capsys, "verify", "p", "--category", "R",
                     "--functor", "dR,dR", "--a", "2", "--b", "3",
                     "--c", "5", "--r", "2", "--mode", "sampled",
                     "--samples", "300", "--out", str(cert))
    assert code == 1
    code, out, _ = run(capsys, "replay", str(cert), "--samples", "100")
    assert code == 1
    assert out.splitlines() == [
        "stored verdict fail, replay verdict pass",
        "pass [sampled(seed=1729)] cells=10 arrows=10 colorings_checked=100",
        "MISMATCH: certificate verdict not reproduced"]


def test_replay_explicit_seed_and_samples_override(capsys, tmp_path):
    cert = tmp_path / "sampled.json"
    code, out, _ = run(capsys, "verify", "p", "--category", "R",
                       "--functor", "dR", "--a", "2", "--b", "3",
                       "--c", "4", "--r", "2", "--mode", "sampled",
                       "--seed", "5", "--samples", "50", "--out", str(cert))
    assert code == 0 and "pass [sampled(seed=5)]" in out
    code, out, _ = run(capsys, "replay", str(cert))
    assert code == 0
    assert "sampled(seed=5)" in out and "colorings_checked=50" in out
    code, out, _ = run(capsys, "replay", str(cert), "--seed", "1729",
                       "--samples", "10000")
    assert code == 0
    assert "sampled(seed=1729)" in out and "colorings_checked=10000" in out


def test_out_is_refused_where_no_certificate_is_written(capsys, tmp_path):
    cert = tmp_path / "c.json"
    code, _, _ = run(capsys, "verify", "p", "--category", "R", "--functor",
                     "dR", "--a", "2", "--b", "3", "--c", "4", "--r", "2",
                     "--out", str(cert))
    assert code == 0 and cert.exists()
    for argv in (("degree", "--a", "2", "--b", "3", "--r", "2", "--pool",
                  "0..7"), ("replay", str(cert))):
        target = tmp_path / f"{argv[0]}.json"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 64 and not out and "--out" in err
        assert not target.exists()


@pytest.mark.parametrize("b, c, r, line", [
    ("4", "17", "2", "FAIL [orbit(shift)] cells=136 arrows=2380 nodes=20"),
    ("3", "16", "3", "FAIL [orbit(xor)] cells=120 arrows=560 nodes=1206"),
], ids=["R(4,4)=18", "R(3,3,3)=17"])
def test_verify_refutes_false_witnesses_by_orbit_search(capsys, tmp_path, b,
                                                        c, r, line):
    argv = ("verify", "p", "--category", "R", "--functor", "dR,dR", "--a",
            "2", "--b", b, "--c", c, "--r", r)
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, *argv, "--jobs", jobs,
                           "--out", str(tmp_path / f"{jobs}.json"))
        assert code == 1 and out.startswith(line + "\ncounterexample: ")
    cert = tmp_path / "1.json"
    assert cert.read_bytes() == (tmp_path / "2.json").read_bytes()
    code, out, _ = run(capsys, "replay", str(cert), "--jobs", "2")
    assert code == 1 and "MISMATCH" not in out
    assert out.startswith("stored verdict fail, replay verdict fail\n" + line)
    # the replay at two jobs rebuilds the certificate byte for byte
    doc = load_certificate(cert)
    rep = replay_verify(doc, jobs=2)
    again = Claim.from_doc(doc).certificate(rep.result)
    dump_certificate(again, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == cert.read_bytes()


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_refuses_a_sampled_run_without_samples(capsys, samples):
    code, out, err = run(capsys, "verify", "p", "--category", "R",
                         "--functor", "dR,dR", "--a", "2", "--b", "4",
                         "--c", "17", "--r", "2", "--mode", "sampled",
                         "--samples", samples)
    assert code == 64 and not out
    assert f"samples must be at least 1, got {samples}" in err


@pytest.mark.parametrize("b, c, code, line", [
    # the node-capped search proves it
    ("3", "7", 0, "pass [exhaustive] cells=21 arrows=35 nodes=325"),
    # the orbit search refutes it
    ("4", "17", 1, "FAIL [orbit(shift)] cells=136 arrows=2380 nodes=20"),
    # neither decides it, so the run must sample
    ("4", "18", 64, None)])
def test_auto_refuses_no_samples_only_when_it_must_sample(capsys, b, c, code,
                                                          line):
    got, out, err = run(capsys, "verify", "p", "--category", "R",
                        "--functor", "dR,dR", "--a", "2", "--b", b,
                        "--c", c, "--r", "2", "--samples", "0")
    assert got == code
    if line is None:
        assert not out and "samples must be at least 1, got 0" in err
    else:
        assert out.splitlines()[0] == line and not err


@pytest.mark.parametrize("jobs", ["0", "-2"])
@pytest.mark.parametrize("argv", [
    ("verify", "p", "--category", "R", "--functor", "dR", "--a", "2",
     "--b", "3", "--c", "4", "--r", "2"),
    # hom(3, 2) is empty: the degree is 0 without any check
    ("degree", "--a", "3", "--b", "2", "--r", "2", "--pool", "0..3"),
    # no pool: the bound alone runs no check at all
    ("degree", "--a", "1", "--b", "3", "--r", "2", "--bound"),
    ("construct", "--theorem", "fp2p", "--k", "2", "--l", "3", "--r", "2"),
    ("replay", "missing.json")],
    ids=["verify", "degree", "degree-bound", "construct", "replay"])
def test_runs_refuse_fewer_than_one_job(capsys, argv, jobs):
    code, out, err = run(capsys, *argv, "--jobs", jobs)
    assert code == 64 and not out
    assert f"jobs must be at least 1, got {jobs}" in err


@pytest.mark.parametrize("r", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    # hom(3, 2) is empty: no color count below one may pass without a g
    ("verify", "p", "--category", "R", "--functor", "dR", "--a", "3",
     "--b", "3", "--c", "2"),
    # an empty hom(a, b) returns degree 0 before any check
    ("degree", "--a", "3", "--b", "2", "--pool", "0..4")],
    ids=["verify", "degree"])
def test_runs_refuse_fewer_than_one_color(capsys, monkeypatch, argv, r):
    forbid_hom(monkeypatch, SubsetCategory)
    code, out, err = run(capsys, *argv, "--r", r)
    assert code == 64 and not out
    assert f"invalid inputs: need at least one color, got {r}" in err


@pytest.mark.parametrize("r", ["0", "-1"])
def test_degree_bound_refuses_fewer_than_one_color(capsys, monkeypatch, r):
    # with no pool the bound reads r nowhere, yet must refuse it unbuilt
    forbid_hom(monkeypatch, SubsetCategory)
    code, out, err = run(capsys, "degree", "--a", "1", "--b", "3", "--r", r,
                         "--bound")
    assert code == 64 and not out
    assert f"invalid inputs: need at least one color, got {r}" in err


@pytest.mark.parametrize("theorem", [
    "fp2p", "r-fp", "p-pigeonhole", "compose", "product", "modeling", "hj",
    "fouche"])
def test_every_construction_refuses_no_colors(capsys, monkeypatch, theorem):
    monkeypatch.setattr(Claim, "check", forbid_check)
    code, out, err = run(capsys, "construct", "--theorem", theorem, "--r", "0")
    assert code == 64 and not out
    assert err.startswith("invalid inputs: need "), err


def test_replay_refuses_a_certificate_without_samples(capsys, tmp_path):
    cert = tmp_path / "p.json"
    code, _, _ = run(capsys, "verify", "p", "--category", "R",
                     "--functor", "dR", "--a", "2", "--b", "3", "--c", "4",
                     "--r", "2", "--mode", "sampled", "--samples", "100",
                     "--out", str(cert))
    assert code == 0
    doc = json.loads(cert.read_text())
    doc["budget"]["samples"] = 0
    doc["digest"] = document_digest(doc)
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "replay", str(cert))
    assert code == 64 and not out
    assert "samples must be at least 1, got 0" in err


P_PIGEONHOLE = ("verify", "p", "--category", "P", "--functor", "dP",
                "--a", "2:1", "--b", "3:2", "--c", "6:2", "--r", "2")
PIGEONHOLE_THEOREM = ("construct", "--theorem", "p-pigeonhole", "--r", "2")


@pytest.mark.parametrize("argv, flag, field", [
    (P_PIGEONHOLE, "--max-colorings", "max_colorings"),
    (P_PIGEONHOLE, "--max-hom-size", "max_hom_size"),
    (PIGEONHOLE_THEOREM, "--max-color-bits", "max_color_bits"),
    (PIGEONHOLE_THEOREM, "--max-pairs", "max_pairs"),
    # no pool: the bound alone runs no check at all
    (("degree", "--a", "1", "--b", "3", "--r", "2", "--bound"),
     "--max-hom-size", "max_hom_size")],
    ids=["colorings", "hom-size", "color-bits", "pairs", "degree-bound"])
def test_runs_refuse_a_negative_cap(capsys, monkeypatch, argv, flag, field):
    monkeypatch.setattr(Claim, "check", forbid_check)
    forbid_hom(monkeypatch, SubsetCategory)
    code, out, err = run(capsys, *argv, flag, "-1")
    assert code == 64 and not out
    assert f"invalid inputs: {field} must be at least 0, got -1" in err


def test_runs_refuse_a_negative_cap_from_the_environment(capsys, monkeypatch):
    monkeypatch.setattr(Claim, "check", forbid_check)
    monkeypatch.setenv("RAMCAT_MAX_COLORINGS", "-1")
    code, out, err = run(capsys, *P_PIGEONHOLE)
    assert code == 64 and not out
    assert "invalid inputs: max_colorings must be at least 0, got -1" in err


def test_replay_refuses_a_certificate_with_a_negative_cap(capsys, tmp_path):
    cert = tmp_path / "p.json"
    code, _, _ = run(capsys, *P_PIGEONHOLE, "--out", str(cert))
    assert code == 0
    doc = json.loads(cert.read_text())
    doc["budget"]["max_colorings"] = -1
    doc["digest"] = document_digest(doc)
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "replay", str(cert))
    assert code == 64 and not out
    assert "budget.max_colorings must be at least 0, got -1" in err


def deep_certificate(tmp_path: Path, depth: int) -> Path:
    """A digest-correct certificate whose functor spec nests compose depth
    deep, written as text: json.dumps would recurse as deep."""
    cert = tmp_path / "deep.json"
    main(["verify", "p", "--category", "R", "--functor", "dR", "--a", "2",
          "--b", "3", "--c", "4", "--r", "2", "--out", str(cert)])
    doc = json.loads(cert.read_text())
    doc["functor"] = "@"
    spec = ('{"inner":' * depth + '{"kind":"subset-boundary"}'
            + ',"kind":"compose","outer":{"kind":"subset-boundary"}}' * depth)
    body = canonical_json({k: v for k, v in doc.items() if k != "digest"})
    doc["digest"] = hashlib.sha256(
        body.replace('"@"', spec).encode()).hexdigest()
    cert.write_text(canonical_json(doc).replace('"@"', spec))
    return cert


@pytest.mark.parametrize("argv, want, label", [
    (lambda tmp: ("verify", "p", "--category", "R",
                  "--functor", ",".join(["dR"] * 1500),
                  "--a", "1", "--b", "2", "--c", "3", "--r", "2"),
     64, "input nested too deeply: "),
    (lambda tmp: ("construct", "--theorem", "compose", "--k", "1", "--l", "2",
                  "--length", "1500", "--r", "2"),
     64, "input nested too deeply: "),
    (lambda tmp: ("verify", "p", "--category", "trees", "--functor", "dT",
                  *(arg for flag in ("--a", "--b", "--c")
                    for arg in (flag, "1," * 1500 + "0")), "--r", "2"),
     64, "input nested too deeply: "),
    # the decoder refuses it on 3.10-3.12, building the functor on 3.13
    (lambda tmp: ("replay", str(deep_certificate(tmp, 2000))),
     1, "bad certificate: ")],
    ids=["verify-word", "compose-length", "tree-path", "certificate"])
def test_too_deep_input_ends_in_one_line(capsys, tmp_path, argv, want, label):
    args = argv(tmp_path)
    capsys.readouterr()
    code, out, err = run(capsys, *args)
    assert code == want and not out
    assert err.startswith(label) and err.count("\n") == 1, err


_DROP = object()
_RAW = ("NaN", "Infinity")      # written as bare JSON text: "<NaN>" -> NaN


@pytest.mark.parametrize("mode, path, value, named", [
    ("auto", "inputs.a", _DROP, "missing field 'inputs.a'"),
    ("auto", "inputs.r", "2", "'inputs.r' must be int, not str"),
    ("auto", "inputs.r", True, "'inputs.r' must be int, not bool"),
    ("auto", "category", [], "'category' must be dict, not list"),
    ("auto", "budget.max_colorings", _DROP,
     "missing field 'budget.max_colorings'"),
    ("auto", "verification", 3, "missing field 'verification.verdict'"),
    ("auto", "functor", {"kind": "step-boundary"},
     "missing field 'orientation'"),
    ("sampled", "budget.seed", "1729", "'budget.seed' must be int, not str"),
    ("auto", "schema_version", 1, "unsupported schema_version 1"),
    ("auto", "extra", "<NaN>", "NaN is not a finite JSON number"),
    ("auto", "extra", "<Infinity>", "Infinity is not a finite JSON number")],
    ids=["no-a", "str-r", "bool-r", "list-category", "no-max-colorings",
         "int-verification", "step-boundary-without-orientation",
         "str-seed", "schema-1", "nan", "infinity"])
def test_replay_refuses_malformed_certificates(capsys, tmp_path, mode, path,
                                               value, named):
    cert = tmp_path / "p.json"
    code, _, _ = run(capsys, "verify", "p", "--category", "R",
                     "--functor", "dR", "--a", "2", "--b", "3", "--c", "4",
                     "--r", "2", "--mode", mode, "--samples", "50",
                     "--out", str(cert))
    assert code == 0
    doc = json.loads(cert.read_text())
    *parents, key = path.split(".")
    holder = doc
    for part in parents:
        holder = holder[part]
    if value is _DROP:
        del holder[key]
    else:
        holder[key] = value
    doc["digest"] = document_digest(doc)
    text = json.dumps(doc)
    for raw in _RAW:
        text = text.replace(f'"<{raw}>"', raw)
    cert.write_text(text)
    code, out, err = run(capsys, "replay", str(cert))
    assert code == 1 and not out
    assert err.startswith("bad certificate: ") and named in err


@pytest.mark.parametrize("edit, field, named", [
    (lambda doc: doc["inputs"]["s"].__setitem__(0, 7), "inputs.s",
     "not base-16"),
    (lambda doc: doc["witness"].__setitem__("f_prime", canon_hex(5)),
     "witness.f_prime", "a morphism encodes a (dom, cod, data) triple"),
    (lambda doc: doc["inputs"].__setitem__("a", "zz"), "inputs.a",
     "not base-16")],
    ids=["int-in-s", "f-prime-not-a-triple", "a-not-hex"])
def test_replay_refuses_a_morphism_that_does_not_decode(capsys, tmp_path,
                                                        edit, field, named):
    cert = tmp_path / "fp.json"
    code, _, _ = run(capsys, "verify", "fp", "--category", "R",
                     "--functor", "dR", "--a", "1", "--b", "2", "--c", "6",
                     "--r", "2", "--out", str(cert))
    assert code == 0
    doc = json.loads(cert.read_text())
    edit(doc)
    doc["digest"] = document_digest(doc)
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "replay", str(cert))
    # a value that does not decode is a bad certificate, named by its field
    assert code == 1 and not out
    assert err.startswith(f"bad certificate: field {field!r} does not decode: "
                          f"{named}")


def test_replay_refuses_deeply_nested_inputs(capsys, tmp_path):
    cert = tmp_path / "p.json"
    code, _, _ = run(capsys, "verify", "p", "--category", "R",
                     "--functor", "dR", "--a", "2", "--b", "3", "--c", "4",
                     "--r", "2", "--out", str(cert))
    assert code == 0
    # a crafted a: 5,000 one-item tuples around an int, far past the
    # interpreter's recursion limit; only the digest is redone
    doc = json.loads(cert.read_text())
    doc["inputs"]["a"] = "5400000001" * 5000 + canon_hex(2)
    doc["digest"] = document_digest(doc)
    cert.write_text(json.dumps(doc))
    code, out, err = run(capsys, "replay", str(cert))
    assert code == 1 and not out
    assert err == ("bad certificate: field 'inputs.a' does not decode: "
                   "tuples nested deeper than 64 at offset 320\n")


def test_verify_refuses_a_selection_that_does_not_decode(capsys):
    # verify shares the morphism decoder with replay, but --s is a usage error
    code, out, err = run(capsys, "verify", "fp", "--category", "R",
                         "--functor", "dR", "--a", "1", "--b", "2", "--c", "6",
                         "--r", "2", "--s", "zz")
    assert code == 64 and not out
    assert err.startswith("invalid inputs: not base-16")


def test_replay_refuses_non_objects(capsys, tmp_path):
    cert = tmp_path / "p.json"
    code, _, _ = run(capsys, "verify", "p", "--category", "P",
                     "--functor", "dP", "--a", "2:1", "--b", "3:2",
                     "--c", "6:2", "--r", "2", "--out", str(cert))
    assert code == 0
    doc = json.loads(cert.read_text())
    # b is not hashed into the fingerprint, so only the digest needs redoing
    doc["inputs"]["b"] = canon_hex((9, 9))
    doc["digest"] = document_digest(doc)
    cert.write_text(json.dumps(doc))
    code, _, err = run(capsys, "replay", str(cert))
    assert code == 64 and "(9, 9) is not an object" in err


def test_replay_refuses_large_homs_before_fingerprinting(capsys, monkeypatch,
                                                         tmp_path):
    cert = tmp_path / "p.json"
    code, _, _ = run(capsys, "verify", "p", "--category", "R",
                     "--functor", "dR", "--a", "1", "--b", "2", "--c", "6",
                     "--r", "2", "--out", str(cert))
    assert code == 0
    # a crafted witness: only the digest is redone, so the fingerprint is stale
    doc = json.loads(cert.read_text())
    doc["witness"]["c"] = canon_hex(120)
    doc["digest"] = document_digest(doc)
    cert.write_text(json.dumps(doc))
    forbid_hom(monkeypatch, SubsetCategory)
    code, _, err = run(capsys, "replay", str(cert), "--max-hom-size", "10")
    assert code == 2, err
    assert "hom-set size: need 120, cap 10" in err


@pytest.mark.parametrize("env, c, cap", [(None, 2_000_001, 2_000_000),
                                         ("10", 120, 10)])
def test_replay_certificate_cannot_raise_the_hom_cap(capsys, monkeypatch,
                                                     tmp_path, env, c, cap):
    cert = tmp_path / "p.json"
    code, _, _ = run(capsys, "verify", "p", "--category", "R",
                     "--functor", "dR", "--a", "1", "--b", "2", "--c", "6",
                     "--r", "2", "--out", str(cert))
    assert code == 0
    # a crafted witness whose saved cap is raised to match; no replay flags
    doc = json.loads(cert.read_text())
    doc["witness"]["c"] = canon_hex(c)
    doc["budget"]["max_hom_size"] = 10 ** 12
    doc["digest"] = document_digest(doc)
    cert.write_text(json.dumps(doc))
    if env is None:
        monkeypatch.delenv("RAMCAT_MAX_HOM_SIZE", raising=False)
    else:
        monkeypatch.setenv("RAMCAT_MAX_HOM_SIZE", env)
    forbid_hom(monkeypatch, SubsetCategory)
    code, _, err = run(capsys, "replay", str(cert))
    assert code == 2, err
    assert f"hom-set size: need {c}, cap {cap}" in err


def test_replay_tampered_certificate(capsys, tmp_path):
    cert = tmp_path / "p.json"
    run(capsys, "verify", "p", "--category", "R", "--functor", "dR",
        "--a", "2", "--b", "3", "--c", "4", "--r", "2", "--out", str(cert))
    doc = json.loads(cert.read_text())
    doc["inputs"]["r"] = 3
    cert.write_text(json.dumps(doc))
    code, _, err = run(capsys, "replay", str(cert))
    assert code == 1 and "digest mismatch" in err


def test_replay_upgrades_sampled_certificates(capsys, tmp_path):
    cert = tmp_path / "sampled.json"
    code, out, _ = run(capsys, "verify", "p", "--category", "R",
                       "--functor", "dR", "--a", "2", "--b", "3",
                       "--c", "4", "--r", "2", "--mode", "sampled",
                       "--samples", "100", "--out", str(cert))
    assert code == 0 and "pass [sampled(seed=1729)]" in out
    code, out, _ = run(capsys, "replay", str(cert), "--mode", "exhaustive")
    assert code == 0
    assert "stored verdict pass, replay verdict pass (upgraded to exhaustive)" \
        in out


def test_jobs_yield_bitwise_identical_certificates(capsys, tmp_path):
    dd = ("verify", "p", "--category", "R", "--functor", "dR,dR", "--a", "2",
          "--b", "3", "--r", "2")
    runs = {  # an exhaustive pass, a sampled product pass, a sampled fail
        (*dd, "--c", "6"): (0, (1, 2, 4)),
        ("construct", "--theorem", "product", "--coords", "1:2,1:2",
         "--r", "2", "--samples", "20"): (0, (1, 2)),
        (*dd, "--c", "5", "--mode", "sampled", "--samples", "500"): (1, (1, 2)),
    }
    for argv, (expect, job_counts) in runs.items():
        texts = set()
        for jobs in job_counts:
            cert = tmp_path / f"{jobs}.json"
            code, _, _ = run(capsys, *argv, "--jobs", str(jobs),
                             "--out", str(cert))
            assert code == expect
            texts.add(cert.read_bytes())
        assert len(texts) == 1


# exit code and certificate digest of each argv run with --out; a refactor
# that changes any certificate byte changes its digest
_R = ("--category", "R", "--r", "2")
CERTIFICATE_DIGESTS = {
    ("verify", "p", *_R, "--functor", "dR,dR", "--a", "2", "--b", "3",
     "--c", "6"):
        (0, "c0b8d0ddd35bd6d11ca9ce199acc82375328cb4861da57dadccafa16ef354b56"),
    ("verify", "p", *_R, "--functor", "dR,dR", "--a", "2", "--b", "3",
     "--c", "5"):
        (1, "dd224867d785e15c0f03460b167a2f10b213e32286228627c667d1068dfefa57"),
    ("verify", "p", *_R, "--functor", "dR", "--a", "2", "--b", "3",
     "--c", "4", "--mode", "sampled", "--samples", "100"):
        (0, "2c2bb6d75e0f200551e4ccb3fca40c5380768b5c6b6534e4974a24e2c798b2b3"),
    ("verify", "p", "--category", "trees", "--functor", "dT", "--a", "1,0",
     "--b", "2,0,0", "--c", "3,0,0,0", "--r", "2"):
        (0, "b79412425557fc6d1d030743292b3d56630413cf4efc11ba5e798b86947e65b9"),
    ("verify", "fp", *_R, "--functor", "dR", "--a", "1", "--b", "2",
     "--c", "6"):
        (0, "5f2c8ea5c3ef91a6bb1f6d65da99cbcd5cebd864fefe21e04963557ac2298a9a"),
    ("verify", "fp", *_R, "--functor", "dR", "--a", "2", "--b", "3",
     "--c", "5"):
        (0, "c506d7cc0b4fb2f3911d2a9eed5ac9591b4d884b1eee02139dac703914a52ce1"),
    ("construct", "--theorem", "fp2p", "--r", "2"):
        (0, "4645e74df26cc3089d898393b73d4d8c966b2e7ded3cd5d9d79a993b9914bbb3"),
    ("construct", "--theorem", "r-fp", "--r", "2"):
        (0, "18742337cd488645d050d574080308cf271917fab873ae1aaff79950b7ccb219"),
    ("construct", "--theorem", "p-pigeonhole", "--r", "2"):
        (0, "423c41ca1ccf61b0af04311e57464c3c918ba795c924936b07e41e7b704872f6"),
    ("construct", "--theorem", "compose", "--r", "2"):
        (0, "8ea2057e87c33704d95976a040d2c4d8d2eca2f18d87c3ebef6a87677fa733e6"),
    ("construct", "--theorem", "product", "--r", "2"):
        (0, "b7f8226abb9811430dfba347ec29894b16531dba7573ff4590fbd47283a99f3c"),
    ("construct", "--theorem", "modeling", "--r", "2"):
        (0, "b5c8c48be49a76eb4064bdafe8e103e7b6e7db481fdbef42fcd27597680e2b69"),
    ("construct", "--theorem", "hj", "--r", "2"):
        (0, "93181edb31ed23a134bcb14b216dc6d3e0a2537c4d622828fdea71206514785f"),
    ("construct", "--theorem", "fouche", "--r", "2"):
        (0, "20c446c78c6f4ff345370dc6cbcde0d3f0587c8a87aad29681ebd7cfcb304e99"),
}


def test_certificates_are_byte_stable(capsys, tmp_path):
    got = {}
    for i, argv in enumerate(CERTIFICATE_DIGESTS):
        cert = tmp_path / f"{i}.json"
        code, _, _ = run(capsys, *argv, "--out", str(cert))
        doc = load_certificate(cert)
        got[argv] = (code, doc["digest"])
        # a replay at two jobs rebuilds the same bytes
        rep = replay_verify(doc, jobs=2)
        saved = doc["budget"]
        again = Claim.from_doc(doc).certificate(
            rep.result, doc["theorem"], doc["trace"], mode=saved["mode"],
            budget=SearchBudget(saved["max_colorings"], saved["max_hom_size"]),
            seed=saved["seed"], samples=saved["samples"])
        assert rep.match
        dump_certificate(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == cert.read_bytes()
    assert got == CERTIFICATE_DIGESTS
