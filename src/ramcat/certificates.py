"""Self-contained, replayable verification certificates.

A certificate is a canonical-JSON document carrying the registry specs of the
category and functor, the inputs, the witness, an optional construction
trace, the verification record, and two hashes:

  fingerprint  -- over the specs, the encoding versions, and the canonical
                  enumeration of hom(a, c); replay refuses stale certificates
                  whose enumeration no longer matches.
  digest       -- over the whole document minus the digest itself; any edit
                  is detected before replay starts.

Budgets serialized into certificates never include the job count, so replays
with any --jobs produce bit-identical verdicts and documents.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .categories.hjcat import WordBoundary, WordCategory
from .categories.pcat import StepBoundary, StepCategory
from .categories.product import ProductCategory, ProductFunctor
from .categories.rcat import subset_boundary, subset_category
from .categories.trees import tree_category, tree_truncation
from .core import (Category, ComposedFunctor, Functor, IdentityFunctor, Morph,
                   canon_bytes, canon_hex, canon_unhex)
from .engine import (DEFAULT_SAMPLES, DEFAULT_SEED, FpInstance, PCheckResult,
                     SearchBudget, check_fp_witness, check_p_witness,
                     require_hom_budget)

SCHEMA_VERSION = 1


class CertificateError(ValueError):
    """Malformed, tampered or unsupported certificate document."""


class StaleCertificateError(CertificateError):
    """The certificate no longer matches the current canonical enumeration."""


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


# ---------------------------------------------------------------------------
# registry: rebuild categories and functors from their spec dicts


def build_category(spec: dict) -> Category:
    kind = spec.get("kind")
    if kind == "subset":
        return subset_category()
    if kind == "step":
        return StepCategory(spec["orientation"])
    if kind == "word":
        return WordCategory(spec["k0"])
    if kind == "trees":
        return tree_category()
    if kind == "product":
        return ProductCategory(tuple(build_category(s)
                                     for s in spec["factors"]))
    raise CertificateError(f"unknown category kind {kind!r}")


def build_functor(spec: dict) -> Functor:
    kind = spec.get("kind")
    if kind == "subset-boundary":
        return subset_boundary()
    if kind == "step-boundary":
        return StepBoundary(StepCategory(spec["orientation"]))
    if kind == "word-boundary":
        return WordBoundary(WordCategory(spec["k0"]))
    if kind == "tree-truncation":
        return tree_truncation()
    if kind == "product":
        return ProductFunctor(tuple(build_functor(s)
                                    for s in spec["factors"]))
    if kind == "compose":
        return ComposedFunctor(build_functor(spec["outer"]),
                               build_functor(spec["inner"]))
    if kind == "identity":
        return IdentityFunctor(build_category(spec["category"]))
    raise CertificateError(f"unknown functor kind {kind!r}")


# ---------------------------------------------------------------------------
# hashes


def hom_fingerprint(fun: Functor, a: Any, c: Any) -> str:
    """Hash of the enumeration the verification verdict depends on."""
    cat = fun.dom
    h = hashlib.sha256()
    h.update(canonical_json(cat.spec()).encode())
    h.update(canonical_json(fun.spec()).encode())
    h.update(cat.encoding_version.encode())
    h.update(fun.encoding_version.encode())
    h.update(canon_bytes(a))
    h.update(canon_bytes(c))
    for f in cat.hom(a, c):
        h.update(f.encode())
    return h.hexdigest()


def document_digest(doc: dict) -> str:
    clean = {k: v for k, v in doc.items() if k != "digest"}
    return hashlib.sha256(canonical_json(clean).encode()).hexdigest()


# ---------------------------------------------------------------------------
# building documents


def morph_hex(f: Morph) -> str:
    return f.encode().hex()


def morph_unhex(text: str) -> Morph:
    dom, cod, data = canon_unhex(text)
    return Morph(dom, cod, data)


def budget_doc(budget: SearchBudget, mode: str, seed: int, samples: int) -> dict:
    return {"max_colorings": budget.max_colorings,
            "max_hom_size": budget.max_hom_size,
            "mode": mode, "seed": seed, "samples": samples}


def verification_doc(kind: str, res: PCheckResult) -> dict:
    out = {"kind": kind,
           "verdict": "pass" if res.ok else "fail",
           "mode": "exhaustive" if res.exhaustive else "sampled",
           "probabilistic": res.probabilistic,
           "cells": res.cells, "arrows": res.arrows, "checked": res.checked}
    if res.total is not None:
        out["total"] = res.total
    if res.samples is not None:
        out["samples"] = res.samples
    if res.seed is not None:
        out["seed"] = res.seed
    if res.counterexample is not None:
        cex = res.counterexample
        out["counterexample"] = {
            "kind": cex.kind, "index": cex.index, "seed": cex.seed,
            "cells": list(cex.cells) if cex.cells is not None else None}
    return out


def _base_doc(fun: Functor, theorem: str, trace: dict | None,
              budget: SearchBudget, mode: str, seed: int, samples: int) -> dict:
    cat = fun.dom
    return {"schema_version": SCHEMA_VERSION,
            "theorem": theorem,
            "category": cat.spec(),
            "functor": fun.spec(),
            "encodings": {"category": cat.encoding_version,
                          "functor": fun.encoding_version},
            "budget": budget_doc(budget, mode, seed, samples),
            "trace": trace}


def p_certificate(fun: Functor, a: Any, b: Any, c: Any, r: int,
                  result: PCheckResult, *, theorem: str = "partition-check",
                  trace: dict | None = None, mode: str = "auto",
                  budget: SearchBudget | None = None, seed: int = DEFAULT_SEED,
                  samples: int = DEFAULT_SAMPLES) -> dict:
    budget = budget or SearchBudget()
    doc = _base_doc(fun, theorem, trace, budget, mode, seed, samples)
    doc["inputs"] = {"kind": "p", "a": canon_hex(a), "b": canon_hex(b), "r": r}
    doc["witness"] = {"c": canon_hex(c)}
    doc["verification"] = verification_doc("p", result)
    doc["fingerprint"] = hom_fingerprint(fun, a, c)
    doc["digest"] = document_digest(doc)
    return doc


def fp_certificate(fun: Functor, inst: FpInstance, c: Any, f_prime: Morph,
                   g_prime: Morph, result: PCheckResult, *,
                   theorem: str = "fiber-check", trace: dict | None = None,
                   mode: str = "auto", budget: SearchBudget | None = None,
                   seed: int = DEFAULT_SEED,
                   samples: int = DEFAULT_SAMPLES) -> dict:
    budget = budget or SearchBudget()
    doc = _base_doc(fun, theorem, trace, budget, mode, seed, samples)
    doc["inputs"] = {"kind": "fp", "a": canon_hex(inst.a),
                     "b": canon_hex(inst.b), "r": inst.r,
                     "s": [morph_hex(e) for e in inst.s]}
    doc["witness"] = {"c": canon_hex(c), "f_prime": morph_hex(f_prime),
                      "g_prime": morph_hex(g_prime)}
    doc["verification"] = verification_doc("fp", result)
    doc["fingerprint"] = hom_fingerprint(fun, inst.a, c)
    doc["digest"] = document_digest(doc)
    return doc


# ---------------------------------------------------------------------------
# serialization


def dump_certificate(doc: dict, path: str | Path | None = None) -> str:
    text = canonical_json(doc)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="ascii")
    return text


def parse_certificate(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(
            f"not valid JSON at byte {exc.pos}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise CertificateError("certificate must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CertificateError(f"unsupported schema_version {version!r}")
    for field in ("theorem", "category", "functor", "encodings", "budget",
                  "inputs", "witness", "verification", "fingerprint", "digest"):
        if field not in doc:
            raise CertificateError(f"missing field {field!r}")
    if document_digest(doc) != doc["digest"]:
        raise CertificateError("digest mismatch: the document was modified")
    return doc


def load_certificate(path: str | Path) -> dict:
    return parse_certificate(Path(path).read_text(encoding="ascii"))


# ---------------------------------------------------------------------------
# replay


@dataclass(frozen=True)
class ReplayReport:
    match: bool
    verdict: str
    expected: str
    upgraded: bool
    result: PCheckResult


def replay_verify(doc: dict, *, mode: str | None = None,
                  budget: SearchBudget | None = None, seed: int | None = None,
                  samples: int | None = None, jobs: int = 1,
                  max_hom_size: int = SearchBudget.max_hom_size) -> ReplayReport:
    """Re-run the certified check, optionally under an override budget.

    Without one the certificate's caps apply, but never a hom-size cap above
    max_hom_size: the certificate is outside input.

    Raises StaleCertificateError when the current code's enumeration of
    hom(a, c) (or the encoding versions) no longer matches the certificate.
    The report notes an upgrade when a sampled certificate replays
    exhaustively.
    """
    fun = build_functor(doc["functor"])
    cat = build_category(doc["category"])
    if cat.spec() != fun.dom.spec():
        raise CertificateError("category spec disagrees with the functor domain")
    current = {"category": fun.dom.encoding_version,
               "functor": fun.encoding_version}
    if doc["encodings"] != current:
        raise StaleCertificateError(
            f"encoding versions moved from {doc['encodings']} to {current}")
    inputs = doc["inputs"]
    a = canon_unhex(inputs["a"])
    b = canon_unhex(inputs["b"])
    r = inputs["r"]
    c = canon_unhex(doc["witness"]["c"])
    saved = doc["budget"]
    run_budget = budget or SearchBudget(
        max_colorings=saved["max_colorings"],
        max_hom_size=min(saved["max_hom_size"], max_hom_size))
    # refuse before fingerprinting hom(a, c)
    require_hom_budget(fun.dom, run_budget, (a, c))
    if hom_fingerprint(fun, a, c) != doc["fingerprint"]:
        raise StaleCertificateError("canonical hom enumeration changed")
    run_mode = mode or saved["mode"]
    run_seed = saved["seed"] if seed is None else seed
    run_samples = saved["samples"] if samples is None else samples
    if inputs["kind"] == "p":
        res = check_p_witness(fun, a, b, c, r, mode=run_mode,
                              budget=run_budget, seed=run_seed,
                              samples=run_samples, jobs=jobs)
    elif inputs["kind"] == "fp":
        s = tuple(morph_unhex(e) for e in inputs["s"])
        inst = FpInstance(a=a, b=b, s=s, r=r)
        res = check_fp_witness(fun, inst, c,
                               morph_unhex(doc["witness"]["f_prime"]),
                               morph_unhex(doc["witness"]["g_prime"]),
                               mode=run_mode, budget=run_budget, seed=run_seed,
                               samples=run_samples, jobs=jobs)
    else:
        raise CertificateError(f"unknown input kind {inputs['kind']!r}")
    verdict = "pass" if res.ok else "fail"
    expected = doc["verification"]["verdict"]
    upgraded = res.exhaustive and doc["verification"]["mode"] == "sampled"
    return ReplayReport(match=verdict == expected, verdict=verdict,
                        expected=expected, upgraded=upgraded, result=res)
