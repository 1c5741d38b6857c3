"""Witness constructions that mirror the partition-condition proofs.

Each builder returns a witness object together with a trace recording every
oracle call, intermediate object and selected morphism.  Builders never verify
their own output; the engine does that separately, and the certificates module
renders trace + verdict.  Every trace record is one certificates.Trace, built
here with its facts by keyword; a top-level record's kind fact names its
construction ("fp-to-p", "word", "product" or "modeling").

A witness provider is a plain function fn(fun, a, b, r) -> (c, note): c
witnesses fun at (a, b) with r colors, and note is the trace record of its
construction, or None when there is nothing to record.  Every provider here
builds by theorem, so product and modeling records state CONSTRUCTED.

Color blow-ups (R = r**M) use exact integers; a stage whose color count would
exceed the run budget's ``max_color_bits`` (a ``SearchBudget`` field, set on
the command line by ``construct --max-color-bits``) is refused with
``BudgetExceeded`` instead of attempting the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import prod
from typing import Any, Callable, Iterable, Sequence

from .categories.pcat import step_boundary
from .categories.product import ProductFunctor
from .categories.rcat import SubsetBoundary, subset_boundary
from .categories.trees import TreeTruncation, grow, height, shape, tree_truncation
from .categories.hjcat import standard_window, word_boundary, word_category
from .certificates import Trace
from .core import (BudgetExceeded, Category, Functor, IdentityFunctor, Morph,
                   SearchBudget, budgeted_hom, require_hom_budget,
                   sort_morphs)
from .engine import FpInstance, functor_image, require_colors

CONSTRUCTED = "constructed-by-theorem"


class ConstructionError(RuntimeError):
    """A construction stage could not complete; the message names the stage."""


def _stage(label: str, thunk: Callable[[], Any]) -> Any:
    try:
        return thunk()
    except (ConstructionError, ValueError) as exc:   # LiftError is a ValueError
        raise ConstructionError(f"{label}: {exc}") from exc


# ---------------------------------------------------------------------------
# pigeonhole witness for the step category


def p_pigeonhole_witness(k1: int, l: int, r: int) -> tuple[int, int]:
    """Target (m, 2) making the boundary-collapsed step arrows monochromatic.

    The only nontrivial fiber consists of the two-block vectors, one per split
    position; a unit-step surjection [m] -> [l] selects l-1 of the m-1
    available splits, so m-1 = (l-1)r+1 split values pigeonhole into a
    monochromatic set of size l-1.
    """
    if k1 < 2 or l < 1 or r < 1:
        raise ValueError(f"need k1 >= 2, l >= 1, r >= 1, got {(k1, l, r)}")
    return ((l - 1) * r + 2, 2)


def pigeonhole_provider(fun: Functor, a: Any, b: Any, r: int
                        ) -> tuple[Any, None]:
    """Provider for the step boundary at ((k1,1), (l,2)) pairs."""
    l, tag = b
    if tag != 2:
        raise ValueError(f"pigeonhole target must be a (l, 2) object, got {b!r}")
    return p_pigeonhole_witness(max(2, a[0]), l, r), None


# ---------------------------------------------------------------------------
# fiber-condition oracles


def subset_g_prime(delta: Functor, b: int, c: int) -> Morph:
    """The subset g' at (b, c): the prefix inclusion [delta b] -> [delta c],
    which is the identity when c == b."""
    n = delta.obj(b)
    return Morph(n, delta.obj(c), tuple(range(1, n + 1)))


def r_fp_witness(inst: FpInstance,
                 delta: SubsetBoundary | None = None) -> tuple[Any, Morph, Morph]:
    """Fiber-condition witness over the subset category.

    Nontrivial instances (1 <= k < l) get c = (r+1)l, the s-element whose
    payload maximum is largest (empty payload counts as 0, ties broken by
    canonical order), and the prefix inclusion [l-1] -> [m-1].  Instances with
    at most one arrow in hom(a, b) are already monochromatic and return b.
    """
    delta = delta or subset_boundary()
    k, l, s, r = inst.a, inst.b, inst.s, inst.r
    if not s:
        raise ValueError("the arrow selection s must be non-empty")
    require_colors(r)
    if delta.dom.hom_size(k, l) <= 1:
        return l, sort_morphs(s)[0], subset_g_prime(delta, l, l)
    m = (r + 1) * l
    f_prime = max(sort_morphs(s), key=lambda e: max(e.data, default=0))
    return m, f_prime, subset_g_prime(delta, l, m)


def tree_fp_witness(inst: FpInstance, delta: TreeTruncation | None = None,
                    *, budget: SearchBudget | None = None
                    ) -> tuple[Any, Morph, Morph]:
    """Fiber-condition witness over trees.

    Keeps the truncation of T and regrows its deepest level: under the
    f'-image of every truncated S-leaf with children, a fan sized by the
    product Ramsey numbers for the child counts, built under the budget; under
    every other deepest node, a fan matching its child count in T (so
    embeddings of T restricting to the identity survive).  f' is the first
    element of s in canonical order; g' is the identity on truncated T.
    """
    delta = delta or tree_truncation()
    s_tree, t_tree, s, r = inst.a, inst.b, inst.s, inst.r
    if not s:
        raise ValueError("the arrow selection s must be non-empty")
    sh_s, sh_t = shape(s_tree), shape(t_tree)
    h = sh_s.height
    if sh_t.height != h:
        raise ValueError("instances with morphisms require equal heights")
    f_prime = sort_morphs(s)[0]
    if h == 0:
        return t_tree, f_prime, delta.morph(delta.dom.identity(t_tree))
    t_star = delta.obj(t_tree)
    g_prime = delta.dom.identity(t_star)
    # deepest S-nodes that still have children; their images need Ramsey fans
    v_nodes = [i for i in sh_s.kept if sh_s.depth[i] == h - 1 and s_tree[i] > 0]
    kvec = tuple(s_tree[v] for v in v_nodes)
    targets = tuple(f_prime.data[sh_s.renumber[v]] for v in v_nodes)
    pvec = tuple(t_tree[sh_t.kept[w]] for w in targets)
    if any(kk > pp for kk, pp in zip(kvec, pvec)):
        raise ConstructionError("embeddings force child counts to fit")
    fans = {w: t_tree[old] for w, old in enumerate(sh_t.kept)
            if sh_t.depth[old] == h - 1}
    if v_nodes:
        qvec, _ = product_ramsey_numbers(kvec, pvec, r, budget=budget)
        for w, q, pp in zip(targets, qvec, pvec):
            if q < pp:
                raise ConstructionError(
                    "constructed fans must absorb the original ones")
            fans[w] = q
    return grow(t_star, fans), f_prime, g_prime


# ---------------------------------------------------------------------------
# the fiber-condition -> partition-condition recursion


def fp_to_p_construct(delta: Functor, a: Any, b: Any, r: int,
                      oracle: Callable[[FpInstance], tuple[Any, Morph, Morph]],
                      *, selection: str = "oracle-defined",
                      budget: SearchBudget | None = None
                      ) -> tuple[Any, Trace]:
    """Iterate a fiber-condition oracle once per image element of hom(a, b).

    Stage k hands the oracle the pushed copies of the still-unhandled image
    elements, each advanced by one composite with g per stage; the oracle's
    pick is mapped back to the first unhandled element whose copy matches it.
    Each stage handles one element, so the picks are distinct and exhaust
    the image.
    Each stage witness c is refused past the budget's hom-size cap on hom(a, c)
    before the next oracle call or its return: stage objects grow geometrically.
    """
    require_colors(r)
    image = functor_image(delta, a, b, budget)
    # each unhandled image element, in image order, and its pushed copy
    pushed = {e: e for e in image}
    c_cur = b
    stages: list[Trace] = []
    for k in range(1, len(image) + 1):
        s_k = sort_morphs(pushed.values())
        inst = FpInstance(a=a, b=c_cur, s=s_k, r=r)
        c_next, picked, g = _stage(f"oracle at stage {k}", lambda: oracle(inst))
        origin = next((e for e, p in pushed.items() if p == picked), None)
        if origin is None:
            raise ConstructionError(
                f"stage {k}: oracle picked {picked!r} outside the admissible set "
                f"{[m.data for m in s_k]!r}")
        require_hom_budget(delta.dom, budget, (a, c_next))
        del pushed[origin]
        pushed = {e: delta.cod.compose(g, p) for e, p in pushed.items()}
        stages.append(Trace(c_prev=c_cur, s=s_k, picked=picked, origin=origin,
                            g=g, c_next=c_next))
        c_cur = c_next
    return c_cur, Trace(kind="fp-to-p", a=a, b=b, r=r, c=c_cur,
                        selection=selection, stages=tuple(stages))


def r_fp_oracle(delta: SubsetBoundary | None = None) -> Callable[[FpInstance], tuple]:
    return partial(r_fp_witness, delta=delta or subset_boundary())


def fp_provider(oracle_for: Callable[[Functor], Callable[[FpInstance], tuple]],
                selection: str = "oracle-defined",
                budget: SearchBudget | None = None) -> Callable[..., tuple]:
    """Witnesses built by the fp->p recursion with oracle_for(fun), under the
    budget's hom-size cap; the note is the recursion's trace."""
    def fn(fun: Functor, a: Any, b: Any, r: int) -> tuple[Any, Trace]:
        return fp_to_p_construct(fun, a, b, r, oracle_for(fun),
                                 selection=selection, budget=budget)

    return fn


# ---------------------------------------------------------------------------
# composition of witnesses along a functor word


def word_witness(word: Sequence[Functor], a: Any, b: Any, r: int,
                 provider: Callable[..., tuple]) -> tuple[Any, Trace]:
    """Chain single-functor witnesses along a composition word.

    word[0] is applied first.  The provider is called once per stage with the
    stage's own functor and the pair actually in play there: inner stages see
    pushed objects, and each outer stage sees the lift c' of the witness d
    below it, which turns witnessing at (a, c') into witnessing the composite.
    The trace's stages run outer to inner: stages[0] applies word[0].
    """
    if not word:
        raise ValueError("empty words need no construction; b itself works")
    if len(word) == 1:
        c, note = provider(word[0], a, b, r)
        return c, Trace(kind="word", stages=(Trace(
            a=a, b=b, witness=c, lifted_from=None, note=note),))
    gamma = word[0]
    d, inner = word_witness(word[1:], gamma.obj(a), gamma.obj(b), r, provider)
    c_prime = _stage("lift between stages", lambda: gamma.frank_lift(b, d))
    c, note = provider(gamma, a, c_prime, r)
    return c, Trace(kind="word", stages=(Trace(
        a=a, b=c_prime, witness=c, lifted_from=d, note=note),) + inner.stages)


# ---------------------------------------------------------------------------
# products


def product_witness(fun: ProductFunctor, a: Any, b: Any, r: int,
                    provider: Callable[..., tuple], *,
                    budget: SearchBudget | None = None
                    ) -> tuple[Any, Trace]:
    """Coordinate-staged witness for fun at objects (a, b), with provider at
    every coordinate; c comes back packed.

    fun is the word of its coordinate functors, entry p applying parts[p] at
    coordinate p and identities elsewhere, so this is one word_witness with
    coordinate 0 outermost.  Stage p sees the other coordinates' hom-sizes
    as the color blow-up exponent M, asks the provider for a witness at r**M
    colors, and refuses past the budget's max_color_bits bits.  The trace's
    stages are in coordinate order, each with its exponent as m_exponent.
    """
    cat, parts = fun.dom, fun.parts
    k = len(parts)
    if not (cat.is_object(a) and cat.is_object(b)):
        raise ValueError("one object per factor required")
    a_vals, b_vals = cat.values(a), cat.values(b)
    require_colors(r)
    max_bits = (budget or SearchBudget()).max_color_bits
    word = [ProductFunctor(tuple(
        q if i == p else IdentityFunctor(q.cod if i < p else q.dom)
        for i, q in enumerate(parts))) for p in range(k)]

    def fn(gamma: ProductFunctor, x: Any, y: Any, r: int
           ) -> tuple[Any, Trace]:
        p, dom = word.index(gamma), gamma.dom     # functors equal by identity
        x_vals, y_vals = dom.values(x), dom.values(y)
        m_exp = prod(dom.factors[i].hom_size(x_vals[i], y_vals[i])
                     for i in range(k) if i != p)
        bits = m_exp * max(1, r.bit_length())
        if bits > max_bits:
            # refusal, not failure: the blow-up r**M is representable but useless
            raise BudgetExceeded(f"coordinate {p} color bits", bits, max_bits)
        big_r = r ** m_exp
        c_p = _stage(f"coordinate {p} provider",
                     lambda: provider(parts[p], x_vals[p], y_vals[p], big_r)[0])
        return (dom.pack(y_vals[:p] + (c_p,) + y_vals[p + 1:]),
                Trace(a=x_vals[p], b=y_vals[p], m_exponent=m_exp, witness=c_p,
                      provenance=CONSTRUCTED))

    c, trace = word_witness(word, a, b, r, fn)
    return c, Trace(kind="product", r=r, a_values=a_vals, b_values=b_vals,
                    c_values=cat.values(c),
                    stages=tuple(stage.note for stage in trace.stages))


def product_ramsey_witness(kvec: Sequence[int], pvec: Sequence[int], r: int,
                           *, budget: SearchBudget | None = None
                           ) -> tuple[ProductFunctor, Any, Any, Any, Trace]:
    """The staged product of subset boundaries at packed a = kvec and
    b = pvec, each coordinate built by the fp->p recursion under the budget:
    (functor, a, b, packed c, trace)."""
    if len(kvec) != len(pvec) or not kvec:
        raise ValueError("need equally long, non-empty vectors")
    for kk, pp in zip(kvec, pvec):
        if not 0 <= kk <= pp:
            raise ValueError(f"need 0 <= k <= p per coordinate, got {(kk, pp)}")
    fun = ProductFunctor((subset_boundary(),) * len(kvec))
    a, b = fun.dom.pack(kvec), fun.dom.pack(pvec)
    c, trace = product_witness(fun, a, b, r,
                               fp_provider(r_fp_oracle, budget=budget),
                               budget=budget)
    return fun, a, b, c, trace


def product_ramsey_numbers(kvec: Sequence[int], pvec: Sequence[int], r: int, *,
                           budget: SearchBudget | None = None
                           ) -> tuple[tuple, Trace]:
    """Grid Ramsey dimensions: the values of `product_ramsey_witness`'s c."""
    *_, trace = product_ramsey_witness(kvec, pvec, r, budget=budget)
    return trace.c_values, trace


# ---------------------------------------------------------------------------
# cross-relations and modeling


@dataclass(frozen=True)
class CrossRelation:
    """Transfer data letting hom-compositions in one category simulate another.

    phi maps (f in hom(c1,c2), g in hom(d2,d3)) into hom(d1,d2); psi maps
    g in hom(d2,d3) into hom(c2,c3); zeta, when present, maps hom(d1,d3)
    into hom(c1,c3) and satisfies zeta(g.phi(f,g)) = psi(g).f.
    """

    c1: Any
    c2: Any
    c3: Any
    d1: Any
    d2: Any
    d3: Any
    c_cat: Category
    d_cat: Category
    phi: Callable[[Morph, Morph], Morph]
    psi: Callable[[Morph], Morph]
    zeta: Callable[[Morph], Morph] | None = None
    phi_depends_on_g: bool = True


def _sweep(pairs: Iterable, test: Callable[[Any], str],
           budget: SearchBudget | None) -> Trace:
    """Test pairs until a violation or the budget's max_pairs tests; one more
    pair marks the check partial, at the cost of drawing it from the lazy
    pairs only.  The check's facts: ok, checked, partial and violation,
    None unless a pair failed."""
    max_pairs = (budget or SearchBudget()).max_pairs
    checked = 0
    for pair in pairs:
        if checked >= max_pairs:
            return Trace(ok=True, checked=checked, partial=True,
                         violation=None)
        checked += 1
        violation = test(pair)
        if violation:
            return Trace(ok=False, checked=checked, partial=False,
                         violation=violation)
    return Trace(ok=True, checked=checked, partial=False, violation=None)


def _g_f_pairs(rel: CrossRelation, budget: SearchBudget | None
               ) -> Iterable[tuple[Morph, Morph, Morph]]:
    """(g, psi(g), f) over hom(d2, d3) x hom(c1, c2), g outermost."""
    hom_fc = budgeted_hom(rel.c_cat, rel.c1, rel.c2, budget)
    for g in budgeted_hom(rel.d_cat, rel.d2, rel.d3, budget):
        psi_g = rel.psi(g)
        for f in hom_fc:
            yield g, psi_g, f


def check_cross_zeta(rel: CrossRelation, *,
                     budget: SearchBudget | None = None) -> Trace:
    """zeta(g.phi(f,g)) == psi(g).f over all in-cap (f, g) pairs."""
    if rel.zeta is None:
        raise ValueError("relation carries no zeta")

    def test(pair: tuple) -> str:
        g, psi_g, f = pair
        if rel.zeta(rel.d_cat.compose(g, rel.phi(f, g))) == rel.c_cat.compose(psi_g, f):
            return ""
        return f"zeta identity fails at f={f.data!r}, g={g.data!r}"

    return _sweep(_g_f_pairs(rel, budget), test, budget)


def check_cross_welldefined(rel: CrossRelation, *,
                            budget: SearchBudget | None = None) -> Trace:
    """g.phi(f,g) == g'.phi(f',g') implies psi(g).f == psi(g').f'."""
    seen: dict[Morph, Morph] = {}

    def test(pair: tuple) -> str:
        g, psi_g, f = pair
        value = rel.c_cat.compose(psi_g, f)
        key = rel.d_cat.compose(g, rel.phi(f, g))
        if seen.setdefault(key, value) == value:
            return ""
        return ("well-definedness fails: equal composites "
                "with different transfers")

    return _sweep(_g_f_pairs(rel, budget), test, budget)


def check_modeling_compatibility(rel: CrossRelation, gamma: Functor,
                                 delta: Functor, *,
                                 budget: SearchBudget | None = None
                                 ) -> Trace:
    """gamma f == gamma f' implies delta phi(f,g) == delta phi(f',g)."""
    gs = (budgeted_hom(rel.d_cat, rel.d2, rel.d3, budget)
          if rel.phi_depends_on_g else (None,))
    by_image: dict[Morph, list[Morph]] = {}
    for f in budgeted_hom(rel.c_cat, rel.c1, rel.c2, budget):
        by_image.setdefault(gamma.morph(f), []).append(f)
    triples = ((group[0], other, g) for group in by_image.values()
               for other in group[1:] for g in gs)

    def test(triple: tuple) -> str:
        lead, other, g = triple
        if delta.morph(rel.phi(lead, g)) == delta.morph(rel.phi(other, g)):
            return ""
        return (f"compatibility fails at f={lead.data!r}, "
                f"f'={other.data!r}, g={getattr(g, 'data', None)!r}")

    return _sweep(triples, test, budget)


def modeling_transfer(rel_provider: Callable[[Any], CrossRelation],
                      delta_witness: Callable[..., tuple], gamma: Functor,
                      delta: Functor, d1: Any, d2: Any, a: Any, b: Any, r: int,
                      *, budget: SearchBudget | None = None
                      ) -> tuple[Any, Trace]:
    """Pull a witness for gamma at (a, b) across modeling data.

    d3 witnesses delta at (d1, d2), and the trace keeps its provider's note;
    the relation returned for d3 is refused unless it sits at (d1, d2, d3)
    and (a, b), then checked for modeling compatibility and well-definedness
    (through zeta when available) before its c3 is accepted.
    """
    require_colors(r)
    d3, note = _stage("delta witness", lambda: delta_witness(delta, d1, d2, r))
    rel = _stage("relation provider", lambda: rel_provider(d3))
    if (rel.d1, rel.d2, rel.d3) != (d1, d2, d3):
        raise ConstructionError(f"relation triple disagrees with "
                                f"(d1, d2, d3) = {(d1, d2, d3)!r}")
    if (rel.c1, rel.c2) != (a, b):
        raise ConstructionError(f"relation pair disagrees with "
                                f"(a, b) = {(a, b)!r}")
    compat = check_modeling_compatibility(rel, gamma, delta, budget=budget)
    if not compat.ok:
        raise ConstructionError(f"modeling {compat.violation}")
    if rel.zeta is not None:
        wd = check_cross_zeta(rel, budget=budget)
        via = "zeta-identity"
    else:
        wd = check_cross_welldefined(rel, budget=budget)
        via = "equal-composite-scan"
    if not wd.ok:
        raise ConstructionError(f"modeling {wd.violation}")
    return rel.c3, Trace(kind="modeling", a=a, b=b, r=r, d1=d1, d2=d2, d3=d3,
                         c=rel.c3, compatibility=compat, welldefined=wd,
                         welldefined_via=via,
                         delta_provenance=CONSTRUCTED, note=note)


# ---------------------------------------------------------------------------
# Hales-Jewett modeling and pipeline


def _hj_blocks(vals: tuple, l: int) -> tuple[int, ProductFunctor, Any, Any]:
    """Alphabet size k1, the product of l step boundaries, and in its domain
    d1 (every coordinate the step source) and d2 (every coordinate (3, 2))."""
    k1 = len(set(vals))
    d_coord = (k1, 1) if k1 >= 2 else (1, 0)
    delta = ProductFunctor(tuple(step_boundary() for _ in range(l)))
    pack = delta.dom.pack
    return k1, delta, pack((d_coord,) * l), pack(((3, 2),) * l)


def hj_modeling(v: Any, l: int, c_values: Sequence[tuple]) -> CrossRelation:
    """Model word substitutions at (v, l) inside a product of step categories.

    Coordinate i of the product contributes a block of length m_i; the block
    reads the step value: its variable segment copies input letter i, the
    left segment pins the top alphabet letter, the right segment the letter
    below it.  The relation's c3 is ("L", m) for the concatenated dimension m.
    """
    if v[0] != "V":
        raise ValueError(f"not a window object: {v!r}")
    vals = v[1]
    if l < 1:
        raise ValueError("need at least one input position")
    ms = []
    for pair in c_values:
        if not (isinstance(pair, tuple) and len(pair) == 2 and pair[1] == 2):
            raise ValueError(f"coordinates must be (m, 2) objects, got {pair!r}")
        if pair[0] < 3:
            raise ValueError("blocks need room for three segments (m >= 3)")
        ms.append(pair[0])
    if len(ms) != l:
        raise ValueError("need one block per input position")
    k1, delta, d1, d2 = _hj_blocks(vals, l)
    letters = sorted(set(vals))
    rank = {letter: i + 1 for i, letter in enumerate(letters)}
    wcat = word_category(len(vals) - 1)
    d3 = delta.dom.pack(tuple((m, 2) for m in ms))
    c2 = ("L", l)
    c3 = ("L", sum(ms))
    mid_cap = max(1, k1 - 1)
    u_top = wcat.letter_position(v, letters[-1])
    u_low = wcat.letter_position(v, letters[max(0, k1 - 2)])  # rank max(1, k1-1)

    def phi(f: Morph, _g: Morph | None = None) -> Morph:
        fvals = f.data[1]
        payload = tuple((k1, rank[fvals[i]], mid_cap) for i in range(l))
        return Morph(d1, d2, payload)

    def psi(p: Morph) -> Morph:
        out = []
        for i in range(l):
            block = p.data[i]
            for t in block:
                out.append(i + 1 if t == 2 else (u_top if t == 1 else u_low))
        return Morph(c2, c3, ("G", tuple(out)))

    def zeta(h: Morph) -> Morph:
        out = []
        for i in range(l):
            for t in h.data[i]:
                out.append(letters[t - 1])
        return Morph(v, c3, ("F", tuple(out)))

    return CrossRelation(v, c2, c3, d1, d2, d3, wcat, delta.dom,
                         phi=phi, psi=psi, zeta=zeta, phi_depends_on_g=False)


def hj_provider(budget: SearchBudget | None = None) -> Callable[..., tuple]:
    """Word-boundary witnesses at (window, ("L", l)): a staged product of
    pigeonhole witnesses, transferred through the block modeling."""
    delta_witness = partial(product_witness, provider=pigeonhole_provider,
                            budget=budget)

    def fn(fun: Functor, a: Any, b: Any, r: int) -> tuple[Any, Trace]:
        lam = b[1]
        _, delta_fun, d1, d2 = _hj_blocks(a[1], lam)

        return modeling_transfer(
            lambda d3: hj_modeling(a, lam, delta_fun.dom.values(d3)),
            delta_witness, fun, delta_fun, d1, d2, a, b, r, budget=budget)

    return fn


def hj_witness(k: int, l: int, r: int, *,
               budget: SearchBudget | None = None) -> tuple[int, Trace]:
    """Dimension m for the combinatorial-line statement at window size k.

    Runs the boundary word of length k at (standard window, l) where each
    stage transfers a staged product of pigeonhole witnesses through the
    block modeling; the final object ("L", m) carries the dimension.
    """
    if k < 1 or l < 1 or r < 1:
        raise ValueError(f"need k, l, r >= 1, got {(k, l, r)}")
    word = [word_boundary(k)] * k
    c, trace = word_witness(word, standard_window(k), ("L", l), r,
                            hj_provider(budget))
    return c[1], trace


# ---------------------------------------------------------------------------
# trees: the end-to-end pipeline


def fouche_witness(s_tree: tuple, t_tree: tuple, r: int, *,
                   budget: SearchBudget | None = None
                   ) -> tuple[tuple, Trace | None]:
    """Tree V making embeddings of S into T monochromatic inside V.

    Equal heights run the truncation word of length edge-height(S) with the
    fiber-condition recursion per stage (tree oracle backed by the product
    Ramsey numbers); height mismatches and single nodes return T directly.
    """
    require_colors(r)
    if height(s_tree) != height(t_tree) or height(s_tree) == 0:
        return t_tree, None

    def oracle_for(trunc: Functor) -> Callable[[FpInstance], tuple]:
        return lambda inst: tree_fp_witness(inst, trunc, budget=budget)

    word = [tree_truncation()] * height(s_tree)
    return word_witness(word, s_tree, t_tree, r,
                        fp_provider(oracle_for, "first-canonical", budget))
