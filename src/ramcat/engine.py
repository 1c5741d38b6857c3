"""Coloring search engine for partition conditions over finite hom sets.

Every claim has one shape.  The cells are the arrows of hom(a, c) in
canonical order; g in hom(b, c) carries f in hom(a, b) to the cell g∘f.  A
claim picks groups of hom(a, b), the admissible g, and a color cap; c passes
when every r-coloring has an admissible g carrying each group onto at most
cap colors.  Partition: the delta-fibers, every g, cap 1.  Fiber: the fiber
of f_prime, the g with delta(g)∘e == g_prime∘e on s, cap 1.  Degree: all of
hom(a, b), every g, cap k.  A check is one admissible row of the category's
action table (per g, the hom(a, c) index of g∘f for each f in hom(a, b)),
read through the groups that all checks share, so no check composes arrows; a
product sums its factors' indices in mixed radix.
_check alone states a run (mode, budget, seed, samples, jobs) and its
defaults, and every public check forwards its **run there.  It refuses r < 1
before any hom-set is sized, so an empty hom(b, c) fails rather than passes.

Exhaustive mode decides all r**|hom(a, c)| colorings.  Coloring idx assigns
cell j (the j-th arrow of hom(a, c) in canonical order) the color
(idx // r**j) % r, so the first arrow is the least significant digit.  A
depth-first search reports what a scan in this index order would: the least
failing index, or a pass over every coloring.  It refuses to start when the
count exceeds the coloring budget, which also bounds the search tree.

Auto mode takes the first route that applies: (1) that search, when r**n is
within max_colorings; (2) the same search capped at SEARCH_MAX_NODES nodes,
when there are at most SEARCH_MAX_CHECKS checks; (3) when route 2 runs out
of nodes and n <= COUNTEREXAMPLE_INLINE_CAP, the orbit falsifier: for each
group of the category's moves in turn, the search over the colorings
constant on the group's orbits, capped at ORBIT_MAX_NODES nodes; (4)
sampling.  A verdict of route 2 is exhaustive (a proof, or the least failing
index) and reports the nodes it visited as `checked`, never r**n.  Route 3
only refutes: a coloring it finds is re-checked against every check and
reported as a fail of kind "orbit" with its cells, its group and the nodes of
that group's search; an orbit space that passes proves nothing.  Routes 3 and
4 read the rows that route 2 listed, so no row is taken twice.  The
caps are module constants, not budget fields: a certificate records only
max_colorings and max_hom_size, and a replay must take the route its write
took.

Sampled mode draws colorings from a deterministic pseudorandom function:
sample i has key splitmix64(splitmix64(seed) + (i+1)*GOLDEN), cell j the color
splitmix64(key + (j+1)*GOLDEN) % r (see prf_color).  A scan hashes the seed
once and each sample once, and draws a cell when a check first reads it.  A
sampled pass is probabilistic evidence only and is flagged as such.  A sampled
failure is a genuine disproof: the reported coloring is explicit and every
candidate arrow was checked against it.  samples < 1 is refused by sampled
mode before any hom-set is built, and by auto mode only when the run is left
to sample.

jobs splits sampled scans only, into contiguous chunks scanned in parallel;
the reported failure is the minimum failing sample, so results and
certificates are identical for any job count.  Search runs in-process,
whatever jobs is.

Every check comes from one source: a picklable callable that yields the
admissible rows of the action table.  The search lists it once, and a sampled
scan after a search reads that list.  Any other sampled scan, in-process or in
a pool worker, calls the source afresh and takes rows on demand: a sample that
fails every row taken so far takes as many again (a product streams its
rows), so a true witness, rescued early by each sample, never builds most of
its rows; a failing sample reads them all.
jobs > 1 pickles the source, so there the category must pickle.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial, reduce
from itertools import islice
from multiprocessing import get_context
from typing import Any, Callable, Iterable, Iterator, Sequence

from .core import (BudgetExceeded, Category, Functor, Morph, SearchBudget,
                   budgeted_hom, require_hom_budget, sort_morphs)

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 10_000
COUNTEREXAMPLE_INLINE_CAP = 4096
# auto past the coloring budget searches when there are at most this many
# checks, and samples when the search would visit more than this many nodes
SEARCH_MAX_CHECKS = 10_000
SEARCH_MAX_NODES = 1_000
# then, before sampling, it searches each of the category's move groups for
# a failing orbit-constant coloring, giving up past this many nodes a group
ORBIT_MAX_NODES = 10_000

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """Finalizer of the splitmix64 generator."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _sample_key(hashed_seed: int, sample: int) -> int:
    return splitmix64(hashed_seed + (sample + 1) * _GOLDEN)


def _draw(key: int, r: int, cell: int) -> int:
    return splitmix64(key + (cell + 1) * _GOLDEN) % r


def prf_color(seed: int, sample: int, cell: int, r: int) -> int:
    """Color of one cell in one sampled coloring, deterministic in (seed,
    sample, cell): the cell's draw under the sample's key."""
    return _draw(_sample_key(splitmix64(seed), sample), r, cell)


@dataclass(frozen=True)
class Coloring:
    """A concrete coloring, either inlined or reconstructible from its index."""

    r: int
    size: int
    # "index" (exhaustive), "sample", or "orbit" (auto's falsifier; index is
    # over the move group's orbits, and the cells are always stored)
    kind: str
    index: int
    seed: int | None = None
    cells: tuple[int, ...] | None = None

    def cell(self, j: int) -> int:
        if not 0 <= j < self.size:
            raise IndexError(j)
        if self.cells is not None:
            return self.cells[j]
        if self.kind == "sample":
            return prf_color(self.seed, self.index, j, self.r)
        return (self.index // self.r ** j) % self.r


@dataclass(frozen=True)
class PCheckResult:
    ok: bool
    exhaustive: bool
    r: int
    cells: int
    arrows: int
    checked: int
    total: int | None = None
    samples: int | None = None
    seed: int | None = None
    counterexample: Coloring | None = None
    nodes: int | None = None    # set by a node-capped search (auto route 2)
    group: str | None = None    # the move group whose orbits refuted c

    @property
    def probabilistic(self) -> bool:
        return self.ok and not self.exhaustive

    @property
    def mode(self) -> str:
        """The route of the verdict: "orbit", "exhaustive" or "sampled"."""
        return ("orbit" if self.group else "exhaustive" if self.exhaustive
                else "sampled")


@dataclass(frozen=True)
class FpInstance:
    a: Any
    b: Any
    s: tuple[Morph, ...]
    r: int


@dataclass(frozen=True)
class DegreeResult:
    degree: int | None
    witness: Any
    r: int
    trail: tuple[tuple[int, Any, bool], ...]
    result: PCheckResult | None


def fiber(delta: Functor, a: Any, b: Any, target: Morph) -> tuple[Morph, ...]:
    """Arrows of hom(a, b) that the functor sends to target."""
    return tuple(f for f in delta.dom.hom(a, b) if delta.morph(f) == target)


def functor_image(delta: Functor, a: Any, b: Any,
                  budget: SearchBudget | None = None) -> tuple[Morph, ...]:
    """Distinct images of hom(a, b) under the functor, canonically ordered;
    hom(a, b) past the budget's hom-size cap is refused before it is built."""
    return sort_morphs(dict.fromkeys(
        delta.morph(f) for f in budgeted_hom(delta.dom, a, b, budget)))


# A check is the action row of one admissible g (row[i]: the cell g∘f of the
# i-th f in hom(a, b)), read through groups of hom(a, b) indices it shares.
Check = tuple[int, ...]
Source = Callable[[], Iterable[Check]]      # each call starts a fresh stream


def _passes(cell: list[int], checks: list[Check],
            groups: Sequence[Sequence[int]], cap: int, draw=None) -> bool:
    """Does some check keep every group within cap colors?  cell[j] is a
    color, or -1 for a cell not drawn yet: draw(j) colors it on first read."""
    for row in checks:
        for grp in groups:
            seen = []
            for i in grp:
                p = row[i]
                v = cell[p]
                if v < 0:
                    v = cell[p] = draw(p)
                if v not in seen:
                    if len(seen) == cap:
                        break       # the cap+1-th color: this group fails
                    seen.append(v)
            else:
                continue
            break                   # a group failed: try the next check
        else:
            return True
    return False


def _lex_search(r: int, n: int, checks: list[Check],
                groups: Sequence[Sequence[int]], cap: int,
                limit: int | None) -> tuple[int | None, int] | None:
    """(least failing coloring index or None when all pass, nodes visited),
    or None when the search would visit more than limit nodes.

    Cells are set from n-1 (the most significant digit) down to 0, colors
    ascending, so failing leaves come in index order.  Each color set on a
    cell is one node.  A branch is cut once a check whose lowest cell was
    just set passes: every completion passes.  A cell takes at most one color
    beyond those used above it; _passes sees only which cells share a color,
    so no least failure is lost.
    """
    reads = {i for grp in groups for i in grp}
    if checks and not reads:
        return None, 0              # no group reads a cell: every check passes
    by_low: list[list[Check]] = [[] for _ in range(n)]
    if checks and len(reads) == len(checks[0]):
        for row in checks:          # the groups read every index of a row
            by_low[min(row)].append(row)
    else:
        for row in checks:
            by_low[min(map(row.__getitem__, reads))].append(row)
    cell = [-1] * n
    used = [0] * (n + 1)            # used[j]: colors among cells j..n-1
    j, nodes = n - 1, 0
    while j < n:
        if j < 0:
            return reduce(lambda idx, v: idx * r + v, reversed(cell), 0), nodes
        v = cell[j] + 1
        if v < r and v <= used[j + 1]:
            if nodes == limit:
                return None
            nodes += 1
            cell[j] = v
            used[j] = max(used[j + 1], v + 1)
            if not (by_low[j] and _passes(cell, by_low[j], groups, cap)):
                j -= 1              # no check passes yet: go deeper
        else:
            cell[j] = -1            # colors at j exhausted: back up
            j += 1
    return None, nodes


def _orbit_search(r: int, n: int, checks: list[Check],
                  groups: Sequence[Sequence[int]], cap: int,
                  gens: tuple[tuple[int, ...], ...]
                  ) -> tuple[int, tuple[int, ...], int] | None:
    """(orbit coloring index, its cells, nodes) for the least failing
    coloring constant on the orbits of gens, or None when the orbit space
    passes or the search would visit more than ORBIT_MAX_NODES nodes.

    The orbits are numbered by their least cell, the orbit of cell 0 the most
    significant digit, and _lex_search runs over each row's orbit image.  A
    coloring constant on the orbits fails a check exactly when it fails the
    check's image, and the lifted cells are re-checked against every check,
    so the verdict needs nothing from gens: they need not be symmetries.
    """
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for perm in gens:
        if sorted(perm) != list(range(n)):
            raise ValueError(f"a move is not a permutation of {n} cells")
        for x, y in enumerate(perm):
            x, y = sorted((find(x), find(y)))
            root[y] = x                 # the least cell stays the root
    least = sorted({find(x) for x in range(n)})
    m = len(least)
    digit = dict(zip(least, range(m - 1, -1, -1)))
    orbit = [digit[find(x)] for x in range(n)]
    images = sorted({tuple(orbit[p] for p in row) for row in checks})
    found = _lex_search(r, m, images, groups, cap, ORBIT_MAX_NODES)
    if found is None or found[0] is None:
        return None
    index, nodes = found
    cells = tuple((index // r ** orbit[j]) % r for j in range(n))
    if _passes(list(cells), checks, groups, cap):
        raise AssertionError(f"orbit coloring {index} passes a check that "
                             f"its orbit image fails")
    return index, cells, nodes


def _scan_range(seed: int, r: int, n: int, source: Source,
                groups: Sequence[Sequence[int]], cap: int, lo: int,
                hi: int) -> int | None:
    """First failing sample in [lo, hi), or None; cells are drawn as read.

    Checks are taken from a fresh source() as needed: a sample that no check
    taken so far passes takes as many again, and reads them in order, until
    the source runs out.  Taken checks are kept for later samples.
    """
    hashed, source, checks = splitmix64(seed), iter(source()), []
    for idx in range(lo, hi):
        draw = partial(_draw, _sample_key(hashed, idx), r)
        cell, todo = [-1] * n, checks
        while not _passes(cell, todo, groups, cap, draw):
            todo = list(islice(source, len(checks) or 1))
            if not todo:
                return idx
            checks.extend(todo)
    return None


def _first_sampled_failure(seed: int, r: int, n: int, source: Source,
                           groups: Sequence[Sequence[int]], cap: int,
                           samples: int, jobs: int) -> int | None:
    """Least failing sample of [0, samples), or None."""
    if jobs <= 1 or samples <= 1:
        return _scan_range(seed, r, n, source, groups, cap, 0, samples)
    scan = partial(_scan_range, seed, r, n, source, groups, cap)
    jobs = min(jobs, samples)
    cuts = [samples * i // jobs for i in range(jobs + 1)]
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=get_context("fork")) as pool:
        hits = [h for h in pool.map(scan, cuts, cuts[1:]) if h is not None]
    return min(hits, default=None)


def _checks(cat: Category, a: Any, b: Any, c: Any, admissible
            ) -> Iterator[Check]:
    """The admissible rows of the action table."""
    for j, row in enumerate(cat.action(a, b, c)):
        if admissible is None or j in admissible:
            yield row


def require_colors(r: int) -> None:
    """Refuse a run or construction with fewer than one color."""
    if r < 1:
        raise ValueError(f"need at least one color, got {r}")


def _refuse_run(r: int, jobs: int) -> None:
    require_colors(r)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _refuse_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def _check(cat: Category, a: Any, b: Any, c: Any, r: int, cap: int,
           select: Callable, *, mode: str = "auto",
           budget: SearchBudget | None = None, seed: int = DEFAULT_SEED,
           samples: int = DEFAULT_SAMPLES, jobs: int = 1) -> PCheckResult:
    """Decide the r-colorings of hom(a, c) against groups of hom(a, b) under a cap.

    select(hom(a, b)) returns the groups, as tuples of indices in hom(a, b),
    and the set of indices in hom(b, c) of the admissible arrows g, or None
    when every g is admissible.  A coloring passes when some admissible g
    carries every group onto at most cap colors.
    """
    _refuse_run(r, jobs)
    if mode not in ("exhaustive", "sampled", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    budget = budget or SearchBudget()
    require_hom_budget(cat, budget, (a, b), (b, c), (a, c))
    n = cat.hom_size(a, c)
    total = r ** n
    if mode == "exhaustive" and total > budget.max_colorings:
        raise BudgetExceeded("colorings", total, budget.max_colorings,
                             power=(r, n))
    exhaustive = mode != "sampled" and total <= budget.max_colorings
    if mode == "sampled":
        _refuse_samples(samples)
    groups, admissible = select(cat.hom(a, b))
    arrows = cat.hom_size(b, c) if admissible is None else len(admissible)
    source = partial(_checks, cat, a, b, c, admissible)
    result = partial(_result, r, n, arrows)
    if exhaustive:
        return result(_lex_search(r, n, list(source()), groups, cap, None)[0],
                      total=total)
    if mode == "auto" and arrows <= SEARCH_MAX_CHECKS:
        rows = list(source())
        found = _lex_search(r, n, rows, groups, cap, SEARCH_MAX_NODES)
        if found is not None:
            return result(found[0], nodes=found[1])
        if n <= COUNTEREXAMPLE_INLINE_CAP:
            for group, gens in cat.moves(a, c):
                hit = _orbit_search(r, n, rows, groups, cap, gens)
                if hit is not None:
                    return result(hit[0], cells=hit[1], nodes=hit[2],
                                  group=group)
        source = partial(tuple, rows)       # no caller lists them again
    _refuse_samples(samples)    # auto refuses only a run that must sample
    return result(_first_sampled_failure(seed, r, n, source, groups, cap,
                                         samples, jobs),
                  samples=samples, seed=seed)


def _result(r: int, n: int, arrows: int, hit: int | None, *,
            total: int | None = None, nodes: int | None = None,
            samples: int | None = None, seed: int | None = None,
            group: str | None = None, cells: tuple[int, ...] | None = None
            ) -> PCheckResult:
    """The verdict of one route: a scan of all `total` colorings, a search
    of `nodes` nodes, the orbit search under `group` that found `cells` in
    `nodes` nodes, or `samples` samples under `seed`."""
    cex = None
    if hit is not None:
        kind = "orbit" if group else "index" if samples is None else "sample"
        cex = Coloring(r=r, size=n, kind=kind, index=hit, seed=seed,
                       cells=cells)
        if n <= COUNTEREXAMPLE_INLINE_CAP:
            cex = replace(cex, cells=tuple(cex.cell(j) for j in range(n)))
    checked = (nodes if nodes is not None else
               hit + 1 if hit is not None else total or samples)
    return PCheckResult(ok=hit is None,
                        exhaustive=samples is None and group is None, r=r,
                        cells=n, arrows=arrows, checked=checked, total=total,
                        samples=samples, seed=seed, counterexample=cex,
                        nodes=nodes, group=group)


def check_p_witness(delta: Functor, a: Any, b: Any, c: Any, r: int,
                    **run) -> PCheckResult:
    """Does c witness the partition condition for delta at (a, b) with r colors?

    Pass means: every r-coloring of hom(a, c) admits g in hom(b, c) such that
    arrows of hom(a, b) identified by delta get equal colors after composing
    with g.
    """
    def select(hom_ab):
        by_image: dict[Morph, list[int]] = {}
        for i, f in enumerate(hom_ab):
            by_image.setdefault(delta.morph(f), []).append(i)
        return [grp for grp in by_image.values() if len(grp) > 1], None

    return _check(delta.dom, a, b, c, r, 1, select, **run)


def check_fp_witness(delta: Functor, inst: FpInstance, c: Any, f_prime: Morph,
                     g_prime: Morph, **run) -> PCheckResult:
    """Does (c, f_prime, g_prime) witness the fiber condition for the instance?

    Pass means: every r-coloring of hom(a, c) admits g in hom(b, c) whose
    image under delta agrees with g_prime on every arrow of s, and which makes
    the fiber of f_prime monochromatic after composition.
    """
    s = inst.s
    if not s:
        raise ValueError("the arrow selection s must be non-empty")
    if f_prime not in s:
        raise ValueError("f_prime must belong to s")
    cod = delta.cod

    def select(hom_ab):
        image_ab = [delta.morph(f) for f in hom_ab]
        if not set(image_ab).issuperset(s):
            raise ValueError("s must lie in the image of hom(a, b)")
        image_bc = [delta.morph(g) for g in delta.dom.hom(inst.b, c)]
        if g_prime not in image_bc:
            raise ValueError("g_prime must lie in the image of hom(b, c)")
        fiber_ab = tuple(i for i, m in enumerate(image_ab) if m == f_prime)
        agree = [cod.compose(g_prime, e) for e in s]
        admissible = {j for j, dg in enumerate(image_bc)
                      if all(cod.compose(dg, e) == ge for e, ge in zip(s, agree))}
        return (fiber_ab,), admissible

    return _check(delta.dom, inst.a, inst.b, c, inst.r, 1, select, **run)


def check_degree_witness(cat: Category, a: Any, b: Any, c: Any, r: int, k: int,
                         **run) -> PCheckResult:
    """Does c force every r-coloring onto at most k colors over some copy of b?"""
    if k < 0:
        raise ValueError("color cap must be nonnegative")
    return _check(cat, a, b, c, r, k,
                  lambda hom_ab: ((tuple(range(len(hom_ab))),), None), **run)


def search_p_witness(delta: Functor, a: Any, b: Any, r: int,
                     pool: Iterable[Any], **run) -> tuple[Any, PCheckResult] | None:
    """First object in the pool that witnesses the partition condition."""
    for c in pool:
        res = check_p_witness(delta, a, b, c, r, **run)
        if res.ok:
            return c, res
    return None


def ramsey_degree(cat: Category, a: Any, b: Any, r: int, pool: Iterable[Any], *,
                  budget: SearchBudget | None = None, jobs: int = 1,
                  **run) -> DegreeResult:
    """Least k with a pool witness forcing at most k colors over copies of b.

    An empty hom(a, b) has degree 0 witnessed by b itself.  Returns degree
    None when no pool object works even at the trivial cap |hom(a, b)|.
    """
    _refuse_run(r, jobs)    # an empty hom(a, b) returns before any check
    hom_ab = budgeted_hom(cat, a, b, budget)
    if iter(pool) is pool:      # one pass per cap k: keep a one-shot iterator
        pool = tuple(pool)
    if not hom_ab:
        return DegreeResult(degree=0, witness=b, r=r, trail=(), result=None)
    trail: list[tuple[int, Any, bool]] = []
    for k in range(1, len(hom_ab) + 1):
        for c in pool:
            res = check_degree_witness(cat, a, b, c, r, k, budget=budget,
                                       jobs=jobs, **run)
            trail.append((k, c, res.ok))
            if res.ok:
                return DegreeResult(degree=k, witness=c, r=r,
                                    trail=tuple(trail), result=res)
    return DegreeResult(degree=None, witness=None, r=r, trail=tuple(trail),
                        result=None)


def degree_upper_bound(a: Any, b: Any, delta: Functor, word_cap: int = 3, *,
                       budget: SearchBudget | None = None
                       ) -> tuple[int, tuple[int, ...]]:
    """Smallest image size of hom(a, b) under the powers of an endofunctor.

    Applies delta to the image of hom(a, b) up to word_cap times; the empty
    word's image size is |hom(a, b)| itself.  Image sizes never grow from one
    power to the next, so the word returned is the first power n that
    reaches the smallest, written (0,) * n.  Once the image has at most one
    arrow, or delta maps it onto itself, every later power gives the same
    set, so the loop stops there.  hom(a, b) past the budget's hom-size cap
    is refused before it is built.
    """
    if word_cap < 0:
        raise ValueError(f"word_cap must be at least 0, got {word_cap}")
    image = set(budgeted_hom(delta.dom, a, b, budget))
    best, power = len(image), 0
    for n in range(1, word_cap + 1):
        nxt = {delta.morph(f) for f in image} if len(image) > 1 else image
        if nxt == image:
            break
        image = nxt
        if len(image) < best:
            best, power = len(image), n
    return best, (0,) * power
