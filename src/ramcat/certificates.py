"""Self-contained, replayable verification certificates.

A certificate is a canonical-JSON document carrying the registry specs of the
category and functor, the inputs, the witness, an optional construction
trace, the verification record, and two hashes:

  fingerprint  -- over the specs, the encoding versions, and the canonical
                  enumeration of hom(a, c); replay refuses stale certificates
                  whose enumeration no longer matches.
  digest       -- over the whole document minus the digest itself; any edit
                  is detected before replay starts.

The trace is a Trace record, rendered fact by fact (schema version 2);
version 1 documents, whose traces were written by hand, are refused.

Budgets serialized into certificates never include the job count, so replays
with any --jobs produce bit-identical verdicts and documents.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

from .categories.hjcat import WordBoundary, WordCategory
from .categories.pcat import StepBoundary, StepCategory
from .categories.product import ProductCategory, ProductFunctor
from .categories.rcat import subset_boundary, subset_category
from .categories.trees import tree_category, tree_truncation
from .core import (Category, ComposedFunctor, EncodingError, Functor,
                   IdentityFunctor, Morph, canon_bytes, canon_hex, canon_unhex)
from .engine import (DEFAULT_SAMPLES, DEFAULT_SEED, FpInstance, PCheckResult,
                     SearchBudget, check_fp_witness, check_p_witness,
                     require_hom_budget)

SCHEMA_VERSION = 2


class CertificateError(ValueError):
    """Malformed, tampered or unsupported certificate document."""


class StaleCertificateError(CertificateError):
    """The certificate no longer matches the current canonical enumeration."""


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


def _field(doc: Any, path: str, kind: type = int,
           decode: Callable[[Any], Any] | None = None) -> Any:
    """doc's value at the dotted path, refused unless its type is exactly
    kind: JSON values are of no subclass, so no bool passes for an int.
    decode, if given, reads the value; one it cannot read is refused too."""
    value = doc
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise CertificateError(f"missing field {path!r}")
        value = value[key]
    if type(value) is not kind:
        raise CertificateError(f"field {path!r} must be {kind.__name__}, "
                               f"not {type(value).__name__}")
    try:
        return value if decode is None else decode(value)
    except EncodingError as exc:
        raise CertificateError(f"field {path!r} does not decode: {exc}") from exc


# ---------------------------------------------------------------------------
# registry: rebuild categories and functors from their spec dicts


def build_category(spec: dict) -> Category:
    kind = _field(spec, "kind", str)
    if kind == "subset":
        return subset_category()
    if kind == "step":
        return StepCategory(_field(spec, "orientation", str))
    if kind == "word":
        return WordCategory(_field(spec, "k0"))
    if kind == "trees":
        return tree_category()
    if kind == "product":
        return ProductCategory(tuple(build_category(s)
                                     for s in _field(spec, "factors", list)))
    raise CertificateError(f"unknown category kind {kind!r}")


def build_functor(spec: dict) -> Functor:
    kind = _field(spec, "kind", str)
    if kind == "subset-boundary":
        return subset_boundary()
    if kind == "step-boundary":
        return StepBoundary(StepCategory(_field(spec, "orientation", str)))
    if kind == "word-boundary":
        return WordBoundary(WordCategory(_field(spec, "k0")))
    if kind == "tree-truncation":
        return tree_truncation()
    if kind == "product":
        return ProductFunctor(tuple(build_functor(s)
                                    for s in _field(spec, "factors", list)))
    if kind == "compose":
        return ComposedFunctor(build_functor(_field(spec, "outer", dict)),
                               build_functor(_field(spec, "inner", dict)))
    if kind == "identity":
        return IdentityFunctor(build_category(_field(spec, "category", dict)))
    raise CertificateError(f"unknown functor kind {kind!r}")


# ---------------------------------------------------------------------------
# hashes


def hom_fingerprint(fun: Functor, a: Any, c: Any) -> str:
    """Hash of the enumeration the verification verdict depends on.

    Every arrow of hom(a, c) is (a, c, data), so its encoding `f.encode()`
    is one constant head, the (dom, cod, data) triple's tuple header and
    the endpoints' bytes, then its payload's bytes; the head is encoded once.
    """
    cat = fun.dom
    h = hashlib.sha256()
    h.update(canonical_json(cat.spec()).encode())
    h.update(canonical_json(fun.spec()).encode())
    h.update(cat.encoding_version.encode())
    h.update(fun.encoding_version.encode())
    ends = canon_bytes(a) + canon_bytes(c)
    h.update(ends)
    head = b"T" + (3).to_bytes(4, "big") + ends
    h.update(b"".join([head + canon_bytes(f.data) for f in cat.hom(a, c)]))
    return h.hexdigest()


def document_digest(doc: dict) -> str:
    clean = {k: v for k, v in doc.items() if k != "digest"}
    return hashlib.sha256(canonical_json(clean).encode()).hexdigest()


# ---------------------------------------------------------------------------
# building documents


def morph_hex(f: Morph) -> str:
    return f.encode().hex()


def morph_unhex(text: str) -> Morph:
    value = canon_unhex(text)
    if not (isinstance(value, tuple) and len(value) == 3):
        raise EncodingError("a morphism encodes a (dom, cod, data) triple")
    return Morph(*value)


def budget_doc(budget: SearchBudget | None = None, mode: str = "auto",
               seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> dict:
    budget = budget or SearchBudget()
    return {"max_colorings": budget.max_colorings,
            "max_hom_size": budget.max_hom_size,
            "mode": mode, "seed": seed, "samples": samples}


def verification_doc(res: PCheckResult) -> dict:
    out = {"verdict": "pass" if res.ok else "fail",
           "mode": res.mode,
           "probabilistic": res.probabilistic,
           "cells": res.cells, "arrows": res.arrows, "checked": res.checked}
    optional = {"total": res.total, "samples": res.samples, "seed": res.seed,
                "nodes": res.nodes, "group": res.group}
    out.update((k, v) for k, v in optional.items() if v is not None)
    if res.counterexample is not None:
        cex = res.counterexample
        out["counterexample"] = {
            "index": cex.index,
            "cells": list(cex.cells) if cex.cells is not None else None}
    return out


class Trace(SimpleNamespace):
    """A construction record: its facts by keyword, fixed once built.  doc()
    is the facts by name; facts holding None or {} are left out, so an
    optional fact needs no new schema version."""

    def __setattr__(self, name: str, *_: Any) -> None:
        raise AttributeError(f"trace records are immutable: {name!r}")

    __delattr__ = __setattr__

    def doc(self) -> dict:
        return {name: _trace_json(value) for name, value in vars(self).items()
                if value is not None and value != {}}


def _trace_json(value: Any) -> Any:
    """A trace value as JSON: records through doc(), arrows as their hex and
    repr, tuples as lists; canonical objects are ints, strings and tuples,
    so they and numbers need nothing more.  Dicts pass through unchanged."""
    if isinstance(value, Trace):
        return value.doc()
    if isinstance(value, Morph):
        return {"hex": morph_hex(value),
                "show": repr((value.dom, value.cod, value.data))}
    if isinstance(value, tuple):
        return [_trace_json(x) for x in value]
    return value


@dataclass(frozen=True)
class Claim:
    """c witnesses the partition condition for fun at (a, b) with r colors,
    or, when fiber holds (s, f_prime, g_prime), the fiber condition."""

    fun: Functor
    a: Any
    b: Any
    c: Any
    r: int
    fiber: tuple[tuple[Morph, ...], Morph, Morph] | None = None

    def check(self, **run) -> PCheckResult:
        """The engine's verdict under run: mode, budget, seed, samples, jobs."""
        if self.fiber is None:
            return check_p_witness(self.fun, self.a, self.b, self.c, self.r,
                                   **run)
        s, f_prime, g_prime = self.fiber
        return check_fp_witness(self.fun, FpInstance(self.a, self.b, s, self.r),
                                self.c, f_prime, g_prime, **run)

    def certificate(self, result: PCheckResult, theorem: str | None = None,
                    trace: Trace | dict | None = None, **run) -> dict:
        """The document for result = check(**run), run minus the job count."""
        fun, kind = self.fun, "p" if self.fiber is None else "fp"
        doc = {"schema_version": SCHEMA_VERSION,
               "theorem": theorem or ("partition-check" if kind == "p"
                                      else "fiber-check"),
               "category": fun.dom.spec(), "functor": fun.spec(),
               "encodings": {"category": fun.dom.encoding_version,
                             "functor": fun.encoding_version},
               "budget": budget_doc(**run), "trace": _trace_json(trace),
               "inputs": {"kind": kind, "a": canon_hex(self.a),
                          "b": canon_hex(self.b), "r": self.r},
               "witness": {"c": canon_hex(self.c)},
               "verification": verification_doc(result),
               "fingerprint": hom_fingerprint(fun, self.a, self.c)}
        if self.fiber is not None:
            s, f_prime, g_prime = self.fiber
            doc["inputs"]["s"] = [morph_hex(e) for e in s]
            doc["witness"].update(f_prime=morph_hex(f_prime),
                                  g_prime=morph_hex(g_prime))
        doc["digest"] = document_digest(doc)
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> Claim:
        """The claim of a parsed certificate, rebuilt by the current code."""
        try:
            fun = build_functor(_field(doc, "functor", dict))
            cat = build_category(_field(doc, "category", dict))
        except RecursionError as exc:
            raise CertificateError("specs nest too deeply to build") from exc
        if cat.spec() != fun.dom.spec():
            raise CertificateError("category spec disagrees with the functor domain")
        current = {"category": fun.dom.encoding_version,
                   "functor": fun.encoding_version}
        if doc["encodings"] != current:
            raise StaleCertificateError(
                f"encoding versions moved from {doc['encodings']} to {current}")
        kind = _field(doc, "inputs.kind", str)
        if kind not in ("p", "fp"):
            raise CertificateError(f"unknown input kind {kind!r}")
        fiber = None if kind == "p" else (
            _field(doc, "inputs.s", list, lambda s: tuple(map(morph_unhex, s))),
            _field(doc, "witness.f_prime", str, morph_unhex),
            _field(doc, "witness.g_prime", str, morph_unhex))
        a, b, c = (_field(doc, path, str, canon_unhex)
                   for path in ("inputs.a", "inputs.b", "witness.c"))
        return cls(fun, a, b, c, _field(doc, "inputs.r"), fiber)


def p_certificate(fun: Functor, a: Any, b: Any, c: Any, r: int,
                  result: PCheckResult, **kw) -> dict:
    return Claim(fun, a, b, c, r).certificate(result, **kw)


def fp_certificate(fun: Functor, inst: FpInstance, c: Any, f_prime: Morph,
                   g_prime: Morph, result: PCheckResult, **kw) -> dict:
    return Claim(fun, inst.a, inst.b, c, inst.r, (inst.s, f_prime, g_prime)
                 ).certificate(result, **kw)


# ---------------------------------------------------------------------------
# serialization


def dump_certificate(doc: dict, path: str | Path | None = None) -> str:
    text = canonical_json(doc)
    if path is not None:
        Path(path).write_text(text + "\n", encoding="ascii")
    return text


def _finite(text: str) -> float:
    """A JSON number canonical JSON can hold: NaN, Infinity and 1e999 cannot."""
    if math.isfinite(value := float(text)):
        return value
    raise CertificateError(f"{text} is not a finite JSON number")


def parse_certificate(text: str) -> dict:
    try:
        doc = json.loads(text, parse_float=_finite, parse_constant=_finite)
        digest = document_digest(doc) if isinstance(doc, dict) else None
    except json.JSONDecodeError as exc:
        raise CertificateError(
            f"not valid JSON at byte {exc.pos}: {exc.msg}") from exc
    except RecursionError as exc:
        raise CertificateError("document nests too deeply to read") from exc
    if not isinstance(doc, dict):
        raise CertificateError("certificate must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CertificateError(f"unsupported schema_version {version!r}")
    for field in ("theorem", "category", "functor", "encodings", "budget",
                  "inputs", "witness", "verification", "fingerprint", "digest"):
        if field not in doc:
            raise CertificateError(f"missing field {field!r}")
    if digest != doc["digest"]:
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
    max_hom_size: the certificate is outside input.  Raises
    StaleCertificateError when the current code's enumeration of hom(a, c)
    (or the encoding versions) no longer matches the certificate.  The
    report notes an upgrade when a sampled certificate replays exhaustively.
    """
    claim = Claim.from_doc(doc)
    saved = {key: _field(doc, f"budget.{key}", type(value))  # as budget_doc types them
             for key, value in budget_doc().items()}
    expected = _field(doc, "verification.verdict", str)
    sampled = _field(doc, "verification.mode", str) == "sampled"
    caps = (saved["max_colorings"], min(saved["max_hom_size"], max_hom_size))
    stored = SearchBudget(*caps).require_nonnegative("budget.")
    run_budget = budget or stored
    # refuse before fingerprinting hom(a, c)
    require_hom_budget(claim.fun.dom, run_budget, (claim.a, claim.c))
    if hom_fingerprint(claim.fun, claim.a, claim.c) != doc["fingerprint"]:
        raise StaleCertificateError("canonical hom enumeration changed")
    res = claim.check(mode=mode or saved["mode"], budget=run_budget,
                      seed=saved["seed"] if seed is None else seed,
                      samples=saved["samples"] if samples is None else samples,
                      jobs=jobs)
    verdict = "pass" if res.ok else "fail"
    upgraded = res.exhaustive and sampled
    return ReplayReport(match=verdict == expected, verdict=verdict,
                        expected=expected, upgraded=upgraded, result=res)
