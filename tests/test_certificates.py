"""Certificate documents: canonical JSON, digests, staleness, replay."""

import json
from dataclasses import replace

import pytest
from brute import brute_fingerprint

from ramcat import (Claim, FpInstance, Morph, SearchBudget, compose_word,
                    check_fp_witness, check_p_witness, dump_certificate,
                    fp_certificate, load_certificate, p_certificate,
                    parse_certificate, product_functor, replay_verify, star,
                    step_boundary, subset_boundary, tree_truncation,
                    word_boundary, word_witness)
from ramcat.categories import ORIENTATIONS
from ramcat.categories.rcat import SubsetBoundary, SubsetCategory
from ramcat.certificates import (CertificateError, StaleCertificateError,
                                 Trace, budget_doc, build_category,
                                 build_functor, canonical_json,
                                 document_digest, hom_fingerprint, morph_hex,
                                 morph_unhex)
from ramcat.constructions import fp_provider, r_fp_oracle

DR = subset_boundary()


def _p_doc(c=4, r=2, **kw):
    res = check_p_witness(DR, 2, 3, c, r, **kw)
    return p_certificate(DR, 2, 3, c, r, res, **kw)


# ---------------------------------------------------------------------------
# document basics


def test_p_certificate_round_trip(tmp_path):
    doc = _p_doc()
    text = dump_certificate(doc, tmp_path / "p.json")
    assert parse_certificate(text) == doc
    assert load_certificate(tmp_path / "p.json") == doc
    rep = replay_verify(doc)
    assert rep.match and rep.verdict == "pass" == rep.expected
    assert not rep.upgraded and rep.result.exhaustive


def test_fail_certificates_replay_to_fail():
    dd = compose_word([DR, DR])
    res = check_p_witness(dd, 2, 3, 5, 2)
    doc = p_certificate(dd, 2, 3, 5, 2, res)
    assert doc["verification"]["verdict"] == "fail"
    assert doc["verification"]["counterexample"]["index"] == 220
    rep = replay_verify(doc)
    assert rep.match and rep.verdict == "fail"
    assert rep.result.counterexample == res.counterexample


def test_fp_certificate_round_trip():
    inst = FpInstance(1, 2, (Morph(0, 1, ()),), 2)
    f_prime, g_prime = Morph(0, 1, ()), Morph(1, 5, (1,))
    res = check_fp_witness(DR, inst, 6, f_prime, g_prime)
    doc = fp_certificate(DR, inst, 6, f_prime, g_prime, res)
    assert parse_certificate(dump_certificate(doc)) == doc
    rep = replay_verify(doc)
    assert rep.match and rep.verdict == "pass"


def test_claims_decode_to_what_they_certify():
    s = (Morph(0, 1, ()),)
    fiber = (s, Morph(0, 1, ()), Morph(1, 5, (1,)))
    inst = FpInstance(1, 2, s, 2)
    for claim, theorem, adapter in [
            (Claim(DR, 2, 3, 4, 2), "partition-check",
             lambda res: p_certificate(DR, 2, 3, 4, 2, res)),
            (Claim(DR, 1, 2, 6, 2, fiber), "fiber-check",
             lambda res: fp_certificate(DR, inst, 6, *fiber[1:], res))]:
        res = claim.check()
        doc = claim.certificate(res)
        assert doc == adapter(res) and doc["theorem"] == theorem
        back = Claim.from_doc(parse_certificate(dump_certificate(doc)))
        assert back.fun.spec() == claim.fun.spec()
        assert back == replace(claim, fun=back.fun)
    doc["inputs"]["kind"] = "q"
    doc["digest"] = document_digest(doc)
    with pytest.raises(CertificateError, match="unknown input kind 'q'"):
        replay_verify(doc)


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = canonical_json({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b
    assert " " not in a
    with pytest.raises(ValueError):
        canonical_json({"v": float("nan")})


def test_budget_doc_never_records_jobs():
    doc = budget_doc(SearchBudget(), "auto", 1729, 10000)
    assert "jobs" not in doc
    assert set(doc) == {"max_colorings", "max_hom_size", "mode", "seed",
                        "samples"}


def test_morph_hex_round_trip():
    for f in (Morph(0, 1, ()), Morph(2, 5, (2, 5)),
              Morph((2, 1), (4, 2), (1, 1, 2, 2))):
        assert morph_unhex(morph_hex(f)) == f


# ---------------------------------------------------------------------------
# trace records


def test_trace_records_are_immutable():
    record = Trace(kind="word", stages=())
    with pytest.raises(AttributeError):
        record.stages = (Trace(a=1),)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        del record.kind
    assert record == Trace(kind="word", stages=())


def test_trace_records_compare_by_their_facts():
    assert Trace(a=1, b=(2, 3)) == Trace(b=(2, 3), a=1)
    assert Trace(a=1) != Trace(a=2)
    assert Trace(kind="word", stages=()) != Trace(kind="product", stages=())
    assert Trace(kind="word", stages=()) != Trace(stages=())


def test_a_none_fact_reads_but_is_not_rendered():
    # a one-functor word: its stage was lifted from nothing
    _, trace = word_witness([DR], 1, 2, 2, fp_provider(r_fp_oracle))
    stage, = trace.stages
    assert stage.lifted_from is None
    assert "lifted_from" not in stage.doc()
    assert set(stage.doc()) == {"a", "b", "witness", "note"}
    assert Trace(a=1, note={}).doc() == {"a": 1}


def test_nested_records_render_through_doc():
    _, trace = word_witness([DR], 1, 2, 2, fp_provider(r_fp_oracle))
    stage, = trace.stages
    note = stage.note
    assert note.kind == "fp-to-p" and len(note.stages) == 1
    assert trace.doc() == {"kind": "word", "stages": [stage.doc()]}
    assert stage.doc()["note"] == note.doc()
    assert note.doc()["stages"] == [note.stages[0].doc()]
    g = note.stages[0].g
    assert note.stages[0].doc()["g"] == {
        "hex": morph_hex(g), "show": repr((g.dom, g.cod, g.data))}


# ---------------------------------------------------------------------------
# tampering and malformed input


def test_parse_rejects_bad_json():
    with pytest.raises(CertificateError, match="not valid JSON at byte"):
        parse_certificate("{oops")
    with pytest.raises(CertificateError, match="JSON object"):
        parse_certificate("[1, 2]")


def test_parse_rejects_wrong_schema_and_missing_fields():
    doc = _p_doc()
    wrong = dict(doc, schema_version=99)
    with pytest.raises(CertificateError, match="schema_version"):
        parse_certificate(canonical_json(wrong))
    for field in ("theorem", "inputs", "witness", "fingerprint", "digest"):
        broken = {k: v for k, v in doc.items() if k != field}
        with pytest.raises(CertificateError):
            parse_certificate(canonical_json(broken))


@pytest.mark.parametrize("edit", [
    lambda d: d["witness"].update(c=d["witness"]["c"][:-2] + "ff"),
    lambda d: d["verification"].update(verdict="fail"),
    lambda d: d["inputs"].update(r=3),
    lambda d: d["budget"].update(seed=1),
])
def test_any_edit_breaks_the_digest(edit):
    doc = json.loads(dump_certificate(_p_doc()))
    edit(doc)
    with pytest.raises(CertificateError, match="digest mismatch"):
        parse_certificate(canonical_json(doc))


# ---------------------------------------------------------------------------
# staleness


def test_replay_rejects_moved_encoding(monkeypatch):
    doc = _p_doc()
    monkeypatch.setattr(SubsetCategory, "encoding_version", "999")
    with pytest.raises(StaleCertificateError, match="encoding versions moved"):
        replay_verify(doc)


def test_replay_rejects_reordered_enumeration(monkeypatch):
    doc = _p_doc()
    orig = SubsetCategory.hom
    monkeypatch.setattr(SubsetCategory, "hom",
                        lambda self, a, b: tuple(reversed(orig(self, a, b))))
    with pytest.raises(StaleCertificateError, match="enumeration changed"):
        replay_verify(doc)


# ---------------------------------------------------------------------------
# replay semantics


def test_sampled_certificate_upgrades_to_exhaustive():
    doc = _p_doc(c=4, mode="sampled", samples=100, seed=5)
    assert doc["verification"]["mode"] == "sampled"
    assert doc["verification"]["probabilistic"]
    again = replay_verify(doc)
    assert again.match and not again.upgraded and not again.result.exhaustive
    assert again.result.samples == 100 and again.result.seed == 5
    up = replay_verify(doc, mode="exhaustive")
    assert up.match and up.upgraded and up.result.exhaustive


def test_replay_jobs_do_not_alter_documents():
    docs = []
    for jobs in (1, 4):
        res = check_p_witness(DR, 2, 3, 4, 2, jobs=jobs)
        docs.append(dump_certificate(p_certificate(DR, 2, 3, 4, 2, res)))
    assert docs[0] == docs[1]
    doc = json.loads(docs[0])
    assert replay_verify(doc, jobs=4).result == replay_verify(doc).result


def test_replay_budget_override():
    doc = _p_doc(c=4)
    from ramcat import BudgetExceeded
    with pytest.raises(BudgetExceeded):
        replay_verify(doc, mode="exhaustive",
                      budget=SearchBudget(max_colorings=3))


# ---------------------------------------------------------------------------
# the fingerprint


_RR = product_functor(DR, DR)
_RP = product_functor(DR, step_boundary())
_HJR = product_functor(word_boundary(1), DR)


@pytest.mark.parametrize("fun, a, c, arrows", [
    (DR, 2, 6, 15),
    (DR, 0, 0, 1),
    *((step_boundary(o), a, c, n) for o in ORIENTATIONS
      for a, c, n in (((2, 1), (6, 2), 5), ((3, 2), (6, 2), 10),
                      ((2, 0), (5, 2), 7))),
    (word_boundary(0), ("V", (1,)), ("L", 3), 1),
    (word_boundary(0), ("L", 1), ("L", 3), 7),
    (word_boundary(1), ("V", (1, 2)), ("L", 3), 8),
    (word_boundary(1), ("V", (2, 1)), ("L", 2), 4),
    (word_boundary(1), ("L", 1), ("L", 2), 5),
    (word_boundary(1), ("V", (1, 2)), ("V", (2, 1)), 0),
    (tree_truncation(), (2, 0, 0), star(27), 351),
    (tree_truncation(), (1, 1, 0), (2, 1, 0, 1, 0), 2),
    (tree_truncation(), (1, 0), (1, 1, 0), 0),
    (_RR, _RR.dom.pack((1, 2)), _RR.dom.pack((3, 4)), 18),
    (_RP, _RP.dom.pack((1, (2, 1))), _RP.dom.pack((3, (5, 2))), 12),
    (_HJR, _HJR.dom.pack((("V", (1, 2)), 1)), _HJR.dom.pack((("L", 2), 3)),
     12),
    (compose_word([DR, DR]), 2, 6, 15)],
    ids=lambda v: v.name if hasattr(v, "name") else None)
def test_fingerprint_matches_the_literal_hash(fun, a, c, arrows):
    assert fun.dom.hom_size(a, c) == arrows
    assert hom_fingerprint(fun, a, c) == brute_fingerprint(fun, a, c)


# ---------------------------------------------------------------------------
# the registry


def test_registry_round_trips_every_kind():
    from ramcat.categories import (ProductCategory, StepCategory,
                                   WordCategory, tree_category)
    specs = [SubsetCategory().spec(), StepCategory("mirror").spec(),
             WordCategory(2).spec(), tree_category().spec(),
             ProductCategory((SubsetCategory(), WordCategory(1))).spec()]
    for spec in specs:
        assert build_category(spec).spec() == spec
    dd = compose_word([DR, DR])
    fspecs = [DR.spec(), dd.spec()]
    for fspec in fspecs:
        assert build_functor(fspec).spec() == fspec
    rebuilt = build_functor(dd.spec())
    assert rebuilt.obj(5) == 3
    with pytest.raises(CertificateError, match="unknown category kind"):
        build_category({"kind": "nope"})
    with pytest.raises(CertificateError, match="unknown functor kind"):
        build_functor({"kind": "nope"})


def test_compose_certificates_rebuild_across_handles():
    dd = compose_word([DR, DR])
    res = check_p_witness(dd, 1, 2, 5, 2)
    claim = Claim.from_doc(p_certificate(dd, 1, 2, 5, 2, res))
    inner, outer = claim.fun.inner, claim.fun.outer
    # each factor is rebuilt with its own category handle
    assert inner.cod is not outer.dom
    assert claim.fun.spec() == dd.spec() and claim.check().ok == res.ok


def test_identity_functor_certificate_round_trip():
    from ramcat import IdentityFunctor
    from ramcat.categories import subset_category
    ident = IdentityFunctor(subset_category())
    res = check_p_witness(ident, 1, 2, 2, 1)
    doc = p_certificate(ident, 1, 2, 2, 1, res)
    rep = replay_verify(doc)
    assert rep.match and rep.verdict == "pass"
