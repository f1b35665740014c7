"""Exact k-sparseness check and availability recount for triple systems.

Shares no code with the sparsesteiner package: it reads plain block lists and
works from the definition (no j points span more than j-3 blocks, for
4 <= j <= k+2), through two facts that the README argues and the tests
confirm against the package's catalog and its definition-level oracle:

* j = 4 is linearity, j = 5 is impossible in a linear system, and j = 6 is
  Pasch-freeness (the only minimal configuration on six points).
* For k <= 6, every minimal configuration on at most k+2 points can be grown
  from any of its blocks: start from two intersecting blocks, then
  repeatedly add a block that meets the current point set in exactly two
  points.  Such a "tight" collection of m blocks spans exactly m+3 points, so
  one more block inside its span is a violation.

k = 4 uses a vectorised Pasch search; k = 5 and 6 enumerate every tight
collection on at most k+2 points once, rooted at its smallest block.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

Block = tuple[int, int, int]


class Violation(NamedTuple):
    points: tuple[int, ...]
    blocks: tuple[Block, ...]


def _linear_tables(n: int, blocks: Sequence[Block]):
    """Flat pair -> third point and pair -> block id tables, or a violation."""
    third = [-1] * (n * n)
    owner = [-1] * (n * n)
    for i, (a, b, c) in enumerate(blocks):
        if not 0 <= a < b < c < n:
            raise ValueError(f"malformed block {(a, b, c)} for n={n}")
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            prev = owner[x * n + y]
            if prev >= 0:
                other = blocks[prev]
                pts = tuple(sorted(set(other) | {a, b, c}))
                return None, None, Violation(pts, (other, (a, b, c)))
            third[x * n + y] = third[y * n + x] = z
            owner[x * n + y] = owner[y * n + x] = i
    return third, owner, None


def find_pasch(n: int, blocks: Sequence[Block]) -> Optional[Violation]:
    """A Pasch configuration of a linear system, if any (vectorised per point).

    Blocks {a,x,y} and {a,x',y'} through a point a close a Pasch exactly when
    the pairs {x,x'} and {y,y'} (or {x,y'} and {y,x'}) are covered by two
    blocks through one common fourth point.
    """
    third = np.full((n, n), -1, dtype=np.int32)
    through: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, c in blocks:
        third[a, b] = third[b, a] = c
        third[a, c] = third[c, a] = b
        third[b, c] = third[c, b] = a
        through[a].append((b, c))
        through[b].append((a, c))
        through[c].append((a, b))
    for a in range(n):
        if len(through[a]) < 2:
            continue
        xy = np.array(through[a], dtype=np.intp)
        x, y = xy[:, 0], xy[:, 1]
        off_diag = ~np.eye(len(x), dtype=bool)
        for p1, q1, p2, q2 in ((x, x, y, y), (x, y, y, x)):
            t1 = third[p1[:, None], q1[None, :]]
            t2 = third[p2[:, None], q2[None, :]]
            hit = (t1 >= 0) & (t1 == t2) & off_diag
            if hit.any():
                i, l = (int(v) for v in np.argwhere(hit)[0])
                t = int(t1[i, l])
                found = (
                    (a, int(x[i]), int(y[i])),
                    (a, int(x[l]), int(y[l])),
                    (int(p1[i]), int(q1[l]), t),
                    (int(p2[i]), int(q2[l]), t),
                )
                found = tuple(tuple(sorted(b)) for b in found)
                pts = tuple(sorted({v for b in found for v in b}))
                return Violation(pts, found)
    return None


def scan(n: int, blocks: Sequence[Block], k: int) -> Optional[Violation]:
    """Exact check that the blocks form a k-sparse system (2 <= k <= 6).

    Returns the first violation found, or None for a k-sparse system.
    """
    if not 2 <= k <= 6:
        raise ValueError("the growth argument is checked for 2 <= k <= 6 only")
    blocks = [tuple(b) for b in blocks]
    third, owner, bad = _linear_tables(n, blocks)
    if bad is not None or k < 4:
        return bad
    if k == 4:
        return find_pasch(n, blocks)
    incident = _incidence(n, blocks)
    for r, root in enumerate(blocks):
        hit = _grow(n, blocks, third, owner, incident, root, r, k + 2)
        if hit is not None:
            return hit
    return None


def _incidence(n: int, blocks: Sequence[Block]) -> list[list[int]]:
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, b in enumerate(blocks):
        for v in b:
            incident[v].append(i)
    return incident


def closes_violation(n: int, blocks: Sequence[Block], t: Block, k: int) -> bool:
    """Whether adding the triple t to a k-sparse system breaks k-sparseness.

    Rooted form of the scan: tight collections are grown from t itself.
    """
    blocks = [tuple(b) for b in blocks]
    third, owner, bad = _linear_tables(n, blocks)
    if bad is not None:
        raise ValueError("the blocks are not linear")
    a, b, c = t
    if max(owner[a * n + b], owner[a * n + c], owner[b * n + c]) >= 0:
        return True  # t shares a pair with a block, or is one
    if k < 4:
        return False
    return _grow(n, blocks, third, owner, _incidence(n, blocks), t, -1, k + 2) is not None


def _grow(n, blocks, third, owner, incident, root, min_id, limit) -> Optional[Violation]:
    """Breadth-first growth of tight collections from one root block.

    Only blocks with id > min_id are added; a collection is identified by its
    point set, which determines its blocks while no violation has been seen.
    Each node is (point mask, points, member blocks, candidates), where a
    candidate is a block meeting the points in exactly two: (outside point, id).
    """
    a, b, c = root
    rmask = 1 << a | 1 << b | 1 << c
    seen: set[int] = set()
    level = []
    for v in root:
        r_rest = [u for u in root if u != v]
        for s in incident[v]:
            if s <= min_id:
                continue
            s_rest = [u for u in blocks[s] if u != v]
            mask = rmask | 1 << s_rest[0] | 1 << s_rest[1]
            if mask in seen:
                continue
            seen.add(mask)
            cands = []
            for x in s_rest:
                for y in r_rest:
                    w = third[x * n + y]
                    if w < 0:
                        continue
                    if mask >> w & 1:
                        return _violation([root, blocks[s]], blocks[owner[x * n + y]])
                    oid = owner[x * n + y]
                    if oid > min_id:
                        cands.append((w, oid))
            level.append((mask, [a, b, c, *s_rest], [root, blocks[s]], cands))
    size = 5
    while level and size < limit:
        nxt = []
        for mask, pts, members, cands in level:
            for w, cid in cands:
                mask2 = mask | 1 << w
                if mask2 in seen:
                    continue
                seen.add(mask2)
                new_cands = [cd for cd in cands if cd[1] != cid]
                for u in pts:
                    t = third[w * n + u]
                    if t < 0:
                        continue
                    oid = owner[w * n + u]
                    if oid == cid:
                        continue
                    if mask2 >> t & 1:
                        return _violation(members + [blocks[cid]], blocks[oid])
                    if oid > min_id:
                        new_cands.append((t, oid))
                nxt.append((mask2, pts + [w], members + [blocks[cid]], new_cands))
        level = nxt
        size += 1
    return None


def _violation(members, extra) -> Violation:
    chosen = tuple(members) + (extra,)
    pts = tuple(sorted({v for blk in chosen for v in blk}))
    return Violation(pts, chosen)


# ---------------------------------------------------------------------------
# Availability recount
# ---------------------------------------------------------------------------


class Recount(NamedTuple):
    """Available triples recounted from the blocks alone.

    ``pair_counts[(u, v)]`` is the number of available triples through the
    uncovered pair u < v (covered pairs are absent); ``total`` is their sum
    over all pairs divided by three.
    """

    total: int
    pair_counts: dict[tuple[int, int], int]


def recount_available(n: int, blocks: Sequence[Block], k: int) -> Recount:
    """Triples that are not blocks and keep a k-sparse system k-sparse when added.

    Such a triple covers no covered pair, so it is a triangle of the graph of
    uncovered pairs.  For k = 4 a triangle {u, v, w} closes a Pasch exactly
    when w = third(y, third(v, x)) for a block {u, x, y}, which is checked
    for all v at once per u; for k >= 5 each triangle is grown as a root.
    """
    if not 4 <= k <= 6:
        raise ValueError("recount supports 4 <= k <= 6")
    blocks = [tuple(b) for b in blocks]
    third, owner, bad = _linear_tables(n, blocks)
    if bad is not None:
        raise ValueError("the blocks are not linear")
    third_np = np.array(third, dtype=np.int32).reshape(n, n)
    free = third_np < 0
    np.fill_diagonal(free, False)
    through: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, c in blocks:
        for v, o1, o2 in ((a, b, c), (b, a, c), (c, a, b)):
            through[v] += [(o1, o2), (o2, o1)]
    incident = _incidence(n, blocks)
    counts: dict[tuple[int, int], int] = {}
    for u in range(n):
        vs = np.nonzero(free[u, u + 1 :])[0] + u + 1
        if not len(vs):
            continue
        cand = free[u][None, :] & free[vs]
        if k == 4 and through[u]:
            xy = np.array(through[u], dtype=np.intp)
            z = third_np[vs[:, None], xy[None, :, 0]]
            ok = z >= 0
            rows = np.broadcast_to(np.arange(len(vs))[:, None], z.shape)[ok]
            w = third_np[np.broadcast_to(xy[None, :, 1], z.shape)[ok], z[ok]]
            keep = w >= 0
            cand[rows[keep], w[keep]] = False
        if k >= 5:
            for row, v in enumerate(vs.tolist()):
                for w in (np.nonzero(cand[row, v + 1 :])[0] + v + 1).tolist():
                    if _grow(n, blocks, third, owner, incident, (u, v, w), -1, k + 2) is not None:
                        # Drop the triangle from all three of its pair counts.
                        cand[row, w] = False
                        counts[(u, w)] = counts.get((u, w), 0) - 1
                        counts[(v, w)] = counts.get((v, w), 0) - 1
        for v, cnt in zip(vs.tolist(), cand.sum(axis=1).tolist()):
            counts[(u, v)] = counts.get((u, v), 0) + int(cnt)
    return Recount(sum(counts.values()) // 3, counts)
