"""Brute-force minima and sweeps: small-scale oracles that only the tests call.

Each computes a known Ramsey-type minimum by exhaustive search over tiny
instances, independently of the theorem constructions it is compared with,
or redoes a library sweep the literal way.
"""

from __future__ import annotations

from itertools import product as iproduct

from ramcat import SearchBudget, check_p_witness, prf_color, subset_boundary
from ramcat.core import LawReport


def brute_minimal_single(k: int, p: int, r: int, *, cap: int = 12,
                         max_colorings: int = 1_000_000) -> int | None:
    """Least c <= cap witnessing the subset-boundary partition condition."""
    delta = subset_boundary()
    budget = SearchBudget(max_colorings=max_colorings)
    for c in range(p, cap + 1):
        if check_p_witness(delta, k, p, c, r, mode="exhaustive",
                           budget=budget).ok:
            return c
    return None


def rectangle_free_exists(q: int, r: int) -> bool:
    """Is there an r-coloring of the q x q grid with no monochromatic
    combinatorial rectangle (two rows and two columns agreeing in color)?

    Columns are assigned depth-first in nondecreasing order (colorings are
    closed under column permutation); a partial assignment dies as soon as
    two columns agree, in the same color, on two rows.
    """
    if q < 2:
        return True
    columns = list(iproduct(range(r), repeat=q))

    def compatible(col_a: tuple, col_b: tuple) -> bool:
        agree = [0] * r
        for x, y in zip(col_a, col_b):
            if x == y:
                agree[x] += 1
                if agree[x] > 1:
                    return False
        return True

    def extend(chosen: list[int], start: int) -> bool:
        if len(chosen) == q:
            return True
        for idx in range(start, len(columns)):
            cand = columns[idx]
            if all(compatible(columns[got], cand) for got in chosen):
                chosen.append(idx)
                if extend(chosen, idx):
                    return True
                chosen.pop()
        return False

    return extend([], 0)


def brute_refutes(checks, colors, cap: int = 1) -> bool:
    """Does the coloring, cell j colored colors[j], let no check keep every
    group within cap colors?  A check is a tuple of groups of cells."""
    return not any(all(len({colors[p] for p in grp}) <= cap for grp in groups)
                   for groups in checks)


def brute_first_failure(r: int, n: int, checks, cap: int) -> int | None:
    """Least index idx < r**n whose coloring, cell j colored
    (idx // r**j) % r, refutes the checks; None when there is none."""
    for idx in range(r ** n):
        if brute_refutes(checks, [(idx // r ** j) % r for j in range(n)], cap):
            return idx
    return None


def brute_first_sampled_failure(seed: int, r: int, n: int, checks, cap: int,
                                samples: int) -> int | None:
    """Least sample idx < samples whose coloring, cell j colored
    prf_color(seed, idx, j, r), refutes the checks; None when there is
    none."""
    for idx in range(samples):
        if brute_refutes(checks, [prf_color(seed, idx, j, r)
                                  for j in range(n)], cap):
            return idx
    return None


def brute_p_checks(delta, a, b, c) -> list:
    """The partition checks of delta at (a, b, c), composed arrow by arrow:
    per g in hom(b, c), the delta-fibers of hom(a, b) (those with two or more
    arrows) carried through g to indices of hom(a, c)."""
    cat = delta.dom
    hom_ab = cat.hom(a, b)
    index = {f.encode(): i for i, f in enumerate(cat.hom(a, c))}
    fibers: dict[bytes, list] = {}
    for f in hom_ab:
        fibers.setdefault(delta.morph(f).encode(), []).append(f)
    groups = [grp for grp in fibers.values() if len(grp) > 1]
    return [tuple(tuple(index[cat.compose(g, f).encode()] for f in grp)
                  for grp in groups)
            for g in cat.hom(b, c)]


def brute_table(cat, hab, hbc, hac) -> list[tuple[int, ...]]:
    """The action table by composing arrows alone: one row per g in hbc, the
    hac index of the composite `Morph` g∘f for each f in hab, or -1 where
    that arrow is not in hac."""
    index = {h: i for i, h in enumerate(hac)}
    return [tuple(index.get(cat.compose(g, f), -1) for f in hab)
            for g in hbc]


def brute_category_laws(cat, objects) -> LawReport:
    """The category-law sweep by composing arrows alone: identity, closure
    and associativity over the non-empty hom-sets of the fragment, in the
    order and with the messages of `check_category_laws`, keeping the first
    20 messages."""
    homs = {(a, b): cat.hom(a, b) for a in objects for b in objects}
    rows = {a: [(b, homs[a, b]) for b in objects if homs[a, b]]
            for a in objects}
    compose, ids = cat.compose, {a: cat.identity(a) for a in objects}
    found, checked = [], 0
    for a in objects:
        if ids[a].dom != a or ids[a].cod != a:
            found.append(f"identity at {a!r} has wrong endpoints")
        for b, hab in rows[a]:
            for f in hab:
                checked += 1
                if f.dom != a or f.cod != b:
                    found.append(f"hom({a!r},{b!r}) contains stray {f!r}")
                if compose(f, ids[a]) != f:
                    found.append(f"f∘id != f for {f!r}")
                if compose(ids[b], f) != f:
                    found.append(f"id∘f != f for {f!r}")
    for a in objects:
        for b, hab in rows[a]:
            for c, hbc in rows[b]:
                for f in hab:
                    for g in hbc:
                        checked += 1
                        if compose(g, f) not in homs[a, c]:
                            found.append(f"compose({g!r},{f!r}) not in "
                                         f"hom({a!r},{c!r})")
                for _, hcd in rows[c]:
                    for f in hab:
                        for g in hbc:
                            for h in hcd:
                                checked += 1
                                if (compose(h, compose(g, f))
                                        != compose(compose(h, g), f)):
                                    found.append(f"associativity fails at "
                                                 f"({h!r},{g!r},{f!r})")
    return LawReport(not found, checked, tuple(found[:20]))


def brute_functor_laws(fun, objects) -> LawReport:
    """The functor-law sweep by mapping arrows alone: over every pair (a, b)
    of the fragment with hom(a, b) non-empty, each image in hom(F a, F b),
    then F(g∘f) == F g∘F f for every composable f, g, in the order and with
    the messages of `check_functor_laws`, keeping the first 20 messages."""
    dom, cod, morph = fun.dom, fun.cod, fun.morph
    homs = {(a, b): dom.hom(a, b) for a in objects for b in objects}
    found, checked = [], 0
    for a in objects:
        fa = fun.obj(a)
        if not cod.is_object(fa):
            found.append(f"obj({a!r}) = {fa!r} is not a codomain object")
            continue
        if morph(dom.identity(a)) != cod.identity(fa):
            found.append(f"identity at {a!r} not preserved")
        for b in objects:
            if not homs[a, b]:
                continue
            target = cod.hom(fa, fun.obj(b))
            for f in homs[a, b]:
                checked += 1
                if morph(f) not in target:
                    found.append(f"morph({f!r}) outside hom of images")
            for c in objects:
                for f in homs[a, b]:
                    for g in homs[b, c]:
                        checked += 1
                        if (morph(dom.compose(g, f))
                                != cod.compose(morph(g), morph(f))):
                            found.append(f"composition not preserved at "
                                         f"({g!r},{f!r})")
    return LawReport(not found, checked, tuple(found[:20]))


def _parents(t: tuple) -> list[int]:
    """Each preorder node's parent (-1 at the root) of a child-count tuple."""
    parents, open_ = [], []          # open_: [node, children still to come]
    for i, c in enumerate(t):
        parents.append(open_[-1][0] if open_ else -1)
        if open_:
            open_[-1][1] -= 1
        open_.append([i, c])
        while open_ and open_[-1][1] == 0:
            open_.pop()
    return parents


def _height(parents: list[int]) -> int:
    depth = [0] * len(parents)
    for i, p in enumerate(parents):
        if p >= 0:
            depth[i] = depth[p] + 1
    return max(depth)


def brute_tree_embeddings(s: tuple, t: tuple) -> list[tuple[int, ...]]:
    """Every embedding of tree s into tree t, as the t index of each s node,
    found by trying, node by node in preorder, every t node as the image:
    root to root, each node to a child of its parent's image, later siblings
    to later nodes, no two nodes to one.  Trees of unequal height have none.
    """
    ps, pt = _parents(s), _parents(t)
    if _height(ps) != _height(pt):
        return []
    found = []

    def extend(image: list[int]) -> None:
        i = len(image)
        if i == len(s):
            found.append(tuple(image))
            return
        earlier = [image[j] for j in range(1, i) if ps[j] == ps[i]]
        for w in range(len(t)):
            if (pt[w] == image[ps[i]] and w not in image
                    and all(v < w for v in earlier)):
                extend(image + [w])

    extend([0])
    return found


def brute_minimal_grid(r: int, *, cap: int = 6) -> int | None:
    """Least q <= cap forcing a monochromatic rectangle in every r-coloring."""
    for q in range(2, cap + 1):
        if not rectangle_free_exists(q, r):
            return q
    return None


def brute_minimal_hj_dimension(alphabet: int, r: int, *, cap: int = 3,
                               max_colorings: int = 1_000_000) -> int | None:
    """Least m <= cap such that every r-coloring of the alphabet**m words
    contains a monochromatic combinatorial line (direct enumeration)."""
    if alphabet < 1 or r < 1:
        raise ValueError("need a nonempty alphabet and at least one color")
    for m in range(1, cap + 1):
        words = list(iproduct(range(1, alphabet + 1), repeat=m))
        index = {w: i for i, w in enumerate(words)}
        lines = []
        for mask in range(1, 1 << m):
            wild = [i for i in range(m) if mask >> i & 1]
            fixed_pos = [i for i in range(m) if not mask >> i & 1]
            for fixed in iproduct(range(1, alphabet + 1), repeat=len(fixed_pos)):
                line = []
                for letter in range(1, alphabet + 1):
                    w = [0] * m
                    for i in wild:
                        w[i] = letter
                    for i, v in zip(fixed_pos, fixed):
                        w[i] = v
                    line.append(index[tuple(w)])
                lines.append(tuple(line))
        total = r ** len(words)
        if total > max_colorings:
            raise ValueError(f"m={m} needs {total} colorings, cap {max_colorings}")
        forced = True
        for idx in range(total):
            colors = [(idx // r ** j) % r for j in range(len(words))]
            if not any(len({colors[w] for w in line}) == 1 for line in lines):
                forced = False
                break
        if forced:
            return m
    return None
