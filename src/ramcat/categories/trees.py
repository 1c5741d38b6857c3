"""Finite rooted ordered trees with level-preserving embeddings.

A tree is encoded as its preorder child-count tuple: entry i is the number of
children of the i-th node in preorder.  (0,) is a single node, (2, 0, 0) is a
root with two leaf children, (1, 1, 0) is a path of three nodes.

An embedding S -> T sends the root to the root and, at every node v, maps the
children of v injectively and order-preservingly into the children of the
image of v.  Morphisms exist only between trees of equal height.  Payloads are
tuples giving the T preorder index of each S node.

Hom-sets are counted and enumerated over subtree pairs.  `Shape.kids` lists
each root child's subtree with its preorder offset, and two module memos,
keyed by `(subtree, subtree)`, hold the embedding count (`_count`) and the
sorted payloads (`_payloads`) of every pair met, across calls and across
trees: a child's payloads are read from its subtree pair and shifted by the
child's offset.  Like the shape cache, each memo clears itself when full:
`_COUNTS` past `_MAX_SHAPES` entries, `_PAYLOADS` past `_MAX_SHAPES`
payloads in all (an empty list counts as one), and a hom-set larger than
that is never kept.

The truncation functor removes the deepest level of any tree with at least
two levels and fixes the single-node tree; morphisms are restricted and
reindexed.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Iterator, NamedTuple

from ..core import Category, EncodingError, Functor, Morph


def structure(t: tuple) -> tuple[list, list, list]:
    """children lists, depths, parents by preorder index; validates t."""
    if not (isinstance(t, tuple) and t and all(isinstance(c, int) and c >= 0 for c in t)):
        raise EncodingError(f"not a child-count tuple: {t!r}")
    n = len(t)
    children: list[list[int]] = [[] for _ in range(n)]
    depth = [0] * n
    parent = [-1] * n
    stack: list[list[int]] = []
    for i, c in enumerate(t):
        if stack:
            p = stack[-1][0]
            children[p].append(i)
            parent[i] = p
            depth[i] = depth[p] + 1
            stack[-1][1] -= 1
        elif i > 0:
            raise EncodingError(f"forest, not a tree: {t!r}")
        stack.append([i, c])
        while stack and stack[-1][1] == 0:
            stack.pop()
    if stack:
        raise EncodingError(f"truncated encoding: {t!r}")
    return children, depth, parent


class Shape(NamedTuple):
    """A validated tree's shape, and what truncation keeps of it."""

    children: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]
    height: int
    levels: tuple[int, ...]      # node count at each depth
    kept: tuple[int, ...]        # preorder indices above the deepest level
    renumber: tuple[int, ...]    # each kept node's index in the truncation
    truncation: tuple
    kids: tuple[tuple[tuple, int], ...]  # (subtree, offset) per root child


_SHAPES: dict[tuple, Shape] = {}
_MAX_SHAPES = 1 << 14


def shape(t: tuple) -> Shape:
    """The shape of t, built by `structure` once per tree; validates t."""
    try:
        return _SHAPES[t]
    except (KeyError, TypeError):  # unhashable input: structure() refuses it
        pass
    children, depth, _ = structure(t)
    h = max(depth)
    kept = tuple(i for i in range(len(t)) if depth[i] < h)
    renumber = [-1] * len(t)
    for new, old in enumerate(kept):
        renumber[old] = new
    trunc = tuple(0 if depth[i] == h - 1 else t[i] for i in kept) if h else t
    if len(_SHAPES) >= _MAX_SHAPES:
        _SHAPES.clear()
    levels = tuple(depth.count(d) for d in range(h + 1))
    roots = children[0]
    kids = tuple((t[i:j], i) for i, j in zip(roots, roots[1:] + [len(t)]))
    out = _SHAPES[t] = Shape(tuple(map(tuple, children)), tuple(depth), h,
                             levels, kept, tuple(renumber), trunc, kids)
    return out


_COUNTS: dict[tuple[tuple, tuple], int] = {}
_PAYLOADS: dict[tuple[tuple, tuple], list[tuple[int, ...]]] = {}
_held_payloads = 0      # payloads in _PAYLOADS, an empty list counted as one


def _count(s: tuple, t: tuple) -> int:
    """The number of embeddings of subtree s into subtree t, root to root."""
    try:
        return _COUNTS[s, t]
    except KeyError:
        pass
    targets = shape(t).kids
    # row[j]: ways to embed s's children so far among t's first j children
    row = [1] * (len(targets) + 1)
    for u, _ in shape(s).kids:
        new = [0]
        for j, (x, _) in enumerate(targets, 1):
            new.append(new[j - 1] + row[j - 1] * _count(u, x))
        row = new
    if len(_COUNTS) >= _MAX_SHAPES:
        _COUNTS.clear()
    out = _COUNTS[s, t] = row[-1]
    return out


def _payloads(s: tuple, t: tuple) -> list[tuple[int, ...]]:
    """The embeddings of subtree s into subtree t as sorted payloads: the t
    index of each s node in preorder.  The list is shared; do not mutate."""
    global _held_payloads
    out = _PAYLOADS.get((s, t))
    if out is not None:
        return out
    sources, targets = shape(s).kids, shape(t).kids
    out = []
    spare = len(targets) - len(sources)     # target children left unused
    if spare >= 0:
        # moved[k][j]: child k's embeddings into target child j, reindexed
        moved = [[[tuple([i + at for i in p]) for p in _payloads(u, x)]
                  for x, at in targets] for u, _ in sources]
        # frontier: (payload of s's first k children, next free target
        # child), so each prefix is built once and shared by its extensions
        frontier = [((0,), 0)]
        for k, row in enumerate(moved):
            frontier = [(p + q, j + 1) for p, free in frontier
                        for j in range(free, spare + k + 1) for q in row[j]]
        out = [p for p, _ in frontier]
        # equal-length int payloads: tuple order is canonical order
        out.sort()
    weight = len(out) or 1          # so empty lists are bounded too
    if _held_payloads + weight > _MAX_SHAPES:
        _PAYLOADS.clear()
        _held_payloads = 0
    if weight <= _MAX_SHAPES:
        _PAYLOADS[s, t] = out
        _held_payloads += weight
    return out


def height(t: tuple) -> int:
    return shape(t).height


def grow(t: tuple, extra: dict[int, int]) -> tuple:
    """Append extra leaf children to selected nodes (by preorder index)."""
    ch = shape(t).children

    def emit(i: int) -> list[int]:
        e = extra.get(i, 0)
        out = [t[i] + e]
        for c in ch[i]:
            out.extend(emit(c))
        out.extend([0] * e)
        return out

    return tuple(emit(0))


def star(k: int) -> tuple:
    """Root with k leaf children."""
    return (k,) + (0,) * k


def _ordered_trees(n: int) -> list[tuple]:
    if n == 1:
        return [(0,)]
    out = []
    for c in range(1, n):
        for parts in _compositions(n - 1, c):
            for subs in _tree_products(parts):
                out.append((c,) + subs)
    return sorted(out)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _tree_products(parts: tuple[int, ...]) -> Iterator[tuple]:
    if not parts:
        yield ()
        return
    for head in _ordered_trees(parts[0]):
        for tail in _tree_products(parts[1:]):
            yield head + tail


def _may_embed(sa: Shape, sb: Shape) -> bool:
    """Embeddings keep depth and are injective, so each level of the source
    must fit in the same level of the target."""
    return sa.height == sb.height and all(
        x <= y for x, y in zip(sa.levels, sb.levels))


class TreeCategory(Category):
    name = "trees"
    encoding_version = "1"

    def is_object(self, a: Any) -> bool:
        try:
            shape(a)
        except EncodingError:
            return False
        return True

    def iter_objects(self) -> Iterator[Any]:
        for n in count(1):
            yield from _ordered_trees(n)

    def hom(self, a: Any, b: Any) -> tuple[Morph, ...]:
        if not _may_embed(shape(a), shape(b)):
            return ()
        return tuple([Morph(a, b, p) for p in _payloads(a, b)])

    def hom_size(self, a: Any, b: Any) -> int:
        if not _may_embed(shape(a), shape(b)):
            return 0
        return _count(a, b)

    def grade(self, a: Any) -> tuple[int, ...]:
        return shape(a).levels

    def identity(self, a: Any) -> Morph:
        shape(a)
        return Morph(a, a, tuple(range(len(a))))

    def compose_data(self, g: Morph, f: Morph) -> Any:
        gd = g.data
        return tuple([gd[j] for j in f.data])

    def spec(self) -> dict:
        return {"kind": "trees"}


class TreeTruncation(Functor):
    """Drop the deepest level; only the single-node tree is fixed."""

    name = "tree-truncation"

    def __init__(self, cat: TreeCategory | None = None):
        cat = cat or TreeCategory()
        super().__init__(cat, cat)

    def obj(self, a: Any) -> Any:
        return shape(a).truncation

    def morph(self, f: Morph) -> Morph:
        sa, sb = shape(f.dom), shape(f.cod)
        if sa.height == 0:
            return f
        renumber, data = sb.renumber, f.data
        return Morph(sa.truncation, sb.truncation,
                     tuple(renumber[data[i]] for i in sa.kept))

    def frank_lift(self, a: Any, b_prime: Any) -> Any:
        sa, sb = shape(a), shape(b_prime)
        depth_b = sb.depth
        hs, hb = sa.height, sb.height
        if hs == hb + 1:
            # restrictions of embeddings a -> lift must cover hom(obj a, b'):
            # wide enough leaf fans under every deepest node extend any of them
            fan = max(a)
            deepest = [i for i in range(len(b_prime)) if depth_b[i] == hb]
            return grow(b_prime, {i: fan for i in deepest})
        if hb == 0:
            return b_prime
        # heights rule out morphisms on both sides; any preimage works
        first_deep = min(i for i in range(len(b_prime)) if depth_b[i] == hb)
        return grow(b_prime, {first_deep: 1})

    def spec(self) -> dict:
        return {"kind": "tree-truncation"}


def tree_category() -> TreeCategory:
    return TreeCategory()


def tree_truncation(cat: TreeCategory | None = None) -> TreeTruncation:
    return TreeTruncation(cat)
