"""Outcome oracle: known answers and an independent re-check of fail colorings.

Known answers come from outside the code under test where one exists:

  R(3,3) = 6    -- 2-colorings of the pairs of [c] force a monochromatic
                   triple exactly when c >= 6 (so dR,dR at (2,3,c), r=2);
  R(4,4) = 18   -- (2,4,17), r=2 has a bad coloring (the Paley graph on 17);
  R(3,3,3) = 17 -- (2,3,16), r=3 has a bad coloring.

Radziszowski, "Small Ramsey Numbers", Electron. J. Combin. DS1.  The witness
values of the theorem pipelines and the law-sweep sizes are pinned from the
tested pipeline outputs instead.

A verdict is definitive when it is an exhaustive pass, or a fail whose
coloring `recheck_p` / `recheck_fp` confirmed.  Those loops use only the public
`hom`, `compose` and `morph` calls, never the engine's compiled checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

R33, R44, R333 = 6, 18, 17

# (theorem, witness) pinned from the pipelines the tests fix
PINNED_WITNESS = {
    "product": (130, 6),
    "fp2p": 27,
    "r-fp": 6,
    "fouche-small": (6, 0, 0, 0, 0, 0, 0),      # star(6)
    "fouche-big": (27,) + (0,) * 27,            # star(27)
    "hj": 6,
}

# law sweeps: name -> (category-law checks, functor-law checks, frank lifts)
PINNED_LAWS = {
    "R": (6681, 1220, 49),
    "P:definition": (1774, 546, 100),
    "P:mirror": (1774, 546, 100),
    "HJ:0": (2413, 346, 25),
    "HJ:1": (9789, 1208, 49),
    "trees<=7": (33741, 9709, 529),
    "RxR": (1471, 390, 36),
    "RxP": (552, 185, 0),
}

SCAN_FAIL_INDEX = {(2, 3, 5): 220}


@dataclass
class Outcome:
    """One instance of a workload, judged after the timed region."""

    name: str
    verdict_bearing: bool = True
    decided: bool = False
    errors: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.errors.append(why)

    @property
    def failed(self) -> bool:
        return bool(self.errors)


def _colors(res, hom_ac, prf_color) -> dict[bytes, int]:
    """Arrow encoding -> color, rebuilt from the reported coloring alone."""
    cex = res.counterexample
    if cex.cells is not None:
        cells = cex.cells
    elif cex.kind == "index":
        cells = [(cex.index // cex.r ** j) % cex.r for j in range(cex.size)]
    else:
        cells = [prf_color(cex.seed, cex.index, j, cex.r)
                 for j in range(cex.size)]
    if len(cells) != len(hom_ac):
        raise ValueError("coloring size differs from |hom(a, c)|")
    return {f.encode(): col for f, col in zip(hom_ac, cells)}


def recheck_p(delta, a, b, c, res, prf_color) -> bool:
    """True when no g in hom(b, c) makes the delta-fibers of hom(a, b) mono."""
    cat = delta.dom
    color = _colors(res, cat.hom(a, c), prf_color)
    groups: dict[bytes, list] = {}
    for f in cat.hom(a, b):
        groups.setdefault(delta.morph(f).encode(), []).append(f)
    for g in cat.hom(b, c):
        if all(len({color[cat.compose(g, f).encode()] for f in grp}) == 1
               for grp in groups.values()):
            return False        # g rescues this coloring: not a refutation
    return True


def recheck_fp(delta, inst, c, f_prime, g_prime, res, prf_color) -> bool:
    """True when no admissible g makes the fiber of f_prime mono."""
    cat, cod = delta.dom, delta.cod
    color = _colors(res, cat.hom(inst.a, c), prf_color)
    fiber_ab = [f for f in cat.hom(inst.a, inst.b) if delta.morph(f) == f_prime]
    for g in cat.hom(inst.b, c):
        dg = delta.morph(g)
        if any(cod.compose(dg, e) != cod.compose(g_prime, e) for e in inst.s):
            continue
        if len({color[cat.compose(g, f).encode()] for f in fiber_ab}) <= 1:
            return False
    return True


def judge(out: Outcome, res, expect_pass: bool, recheck) -> None:
    """Record whether a check result is definitive, and whether it is wrong.

    A sampled pass is never definitive and never wrong; an exhaustive pass or
    a confirmed fail that contradicts the known answer is an error, and so is
    a fail whose coloring does not survive the re-check.
    """
    if res.ok:
        if res.exhaustive:
            if expect_pass:
                out.decided = True
            else:
                out.fail("exhaustive pass contradicts the known answer")
        return
    if not recheck():
        out.fail("reported fail coloring does not refute the witness")
    elif expect_pass:
        out.fail("confirmed fail contradicts the known answer")
    else:
        out.decided = True
