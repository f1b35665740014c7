"""Checks of the program's outputs against properties the method must have.

The files are parsed here, strictly and without the package's readers, and
every check returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

from exact_sparse import recount_available, scan

# CheckResult.instances of extensions.verify_balancedness_props per j_cap.
# A change that drops or adds a gluing instance changes these counts.
PROOF_INSTANCES = {
    6: {
        "block_removal_spread": 90,
        "partial_config_balancedness": 111,
        "overlap_union_edge_bound": 13772,
        "shared_block_union_spread": 908,
        "double_config_root_balance": 4968,
        "butterfly_root_balance": 2384,
        "edge_removal_raises_kappa": 72,
    },
    7: {
        "block_removal_spread": 410,
        "partial_config_balancedness": 751,
        "overlap_union_edge_bound": 182390,
        "shared_block_union_spread": 15764,
        "double_config_root_balance": 161952,
        "butterfly_root_balance": 58808,
        "edge_removal_raises_kappa": 500,
    },
}


class FormatError(ValueError):
    pass


def read_sts(path: Path) -> tuple[int, list[tuple[int, int, int]]]:
    """Header ``sts v1 n=<n>``, then strictly increasing ``a b c`` lines, a < b < c < n."""
    lines = path.read_text(encoding="utf-8").splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 3 or head[:2] != ["sts", "v1"] or not head[2].startswith("n="):
        raise FormatError(f"{path.name}: bad header {lines[:1]}")
    n = int(head[2][2:])
    blocks: list[tuple[int, int, int]] = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"{path.name}: bad block line {line!r}")
        a, b, c = (int(x) for x in parts)
        if not 0 <= a < b < c < n:
            raise FormatError(f"{path.name}: block {line!r} not increasing within n={n}")
        if blocks and blocks[-1] >= (a, b, c):
            raise FormatError(f"{path.name}: block {line!r} repeated or out of order")
        blocks.append((a, b, c))
    return n, blocks


def read_last_stats_row(path: Path) -> dict[str, str]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln]
    if len(lines) < 3 or lines[0] != "# stats-csv v1":
        raise FormatError(f"{path.name}: bad stats csv")
    header, last = lines[1].split(","), lines[-1].split(",")
    if len(header) != len(last):
        raise FormatError(f"{path.name}: row width differs from header")
    return dict(zip(header, last))


def check_run(base: Path, n: int, k: int, gamma: float) -> list[str]:
    """A tracked run's .sts, .stats.csv and .json against each other and the method.

    The last checkpoint's ``avail`` and each tracked pair's ``X`` must equal a
    recount from the .sts alone: a triple is available exactly when it is not
    chosen and adding it keeps the chosen set k-sparse.
    """
    problems: list[str] = []
    try:
        n_file, blocks = read_sts(base.with_suffix(".sts"))
        summary = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
        row = read_last_stats_row(base.with_suffix(".stats.csv"))
    except (OSError, ValueError) as exc:
        return [f"{base.name}: {exc}"]
    if n_file != n or summary.get("n") != n or summary.get("k") != k:
        problems.append(f"{base.name}: n/k differ from the request")
    chosen = len(blocks)
    if not summary.get("tau") == summary.get("chosen") == chosen:
        problems.append(f"{base.name}: tau {summary.get('tau')}, chosen {summary.get('chosen')}, blocks {chosen}")
    if summary.get("uncovered_left") != math.comb(n, 2) - 3 * chosen:
        problems.append(f"{base.name}: uncovered_left {summary.get('uncovered_left')} != C(n,2) - 3*chosen")
    target = math.floor((1 - gamma) * n * n / 6)
    if summary.get("reached_target") is not True or chosen < target:
        problems.append(f"{base.name}: target {target} not reached ({chosen} blocks)")
    bad = scan(n, blocks, k)
    if bad is not None:
        return problems + [f"{base.name}: not {k}-sparse: {bad.blocks} on {bad.points}"]
    recount = recount_available(n, blocks, k)
    if int(row.get("i", -1)) != chosen:
        problems.append(f"{base.name}: last checkpoint i={row.get('i')} is not the final step {chosen}")
    for name, got in (("json available_left", summary.get("available_left")), ("csv avail", row.get("avail"))):
        if got is None or int(got) != recount.total:
            problems.append(f"{base.name}: {name} {got} != recount {recount.total}")
    tracked = 0
    for col, val in row.items():
        if col.startswith("e") and col.endswith(":X"):
            u, v = (int(x) for x in col[1:-2].split("-"))
            tracked += 1
            want = recount.pair_counts.get((min(u, v), max(u, v)), 0)
            if int(val) != want:
                problems.append(f"{base.name}: X_e({u},{v}) {val} != recount {want}")
    if tracked == 0:
        problems.append(f"{base.name}: no tracked pairs in the stats csv")
    return problems


def read_qsys(path: Path) -> tuple[int, int, int, list[tuple[int, ...]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 5 or head[:2] != ["qsys", "v1"]:
        raise FormatError(f"{path.name}: bad header {lines[:1]}")
    n, q, r = (int(h.split("=", 1)[1]) for h in head[2:])
    blocks = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    return n, q, r, blocks


def kappa(q: int, r: int, j: int) -> int:
    """Blocks that any j points of a complete (n,q,r) system must carry."""
    return (j - r - 1) // (q - r)


def weak_violation(blocks: list[tuple[int, ...]], q: int, r: int, k: int):
    """Blocks breaking weak k-sparseness: kappa(j)+2 <= k blocks on at most j points."""
    masks = [sum(1 << v for v in b) for b in blocks]
    j = q + 1
    while kappa(q, r, j) + 2 <= k:
        t = kappa(q, r, j) + 2
        for combo in combinations(range(len(blocks)), t):
            union = 0
            for i in combo:
                union |= masks[i]
            if union.bit_count() <= j:
                return j, [blocks[i] for i in combo]
        j += 1
    return None


def check_design(base: Path, n: int, q: int, r: int, k: int, gamma: float) -> list[str]:
    """A design's .qsys and .json: block sizes, r-sets covered once, target, weak sparseness."""
    try:
        n_file, q_file, r_file, blocks = read_qsys(base.with_suffix(".qsys"))
        summary = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{base.name}: {exc}"]
    if (n_file, q_file, r_file) != (n, q, r):
        return [f"{base.name}: header {(n_file, q_file, r_file)} != {(n, q, r)}"]
    problems = []
    seen: set[tuple[int, ...]] = set()
    for b in blocks:
        if len(b) != q or len(set(b)) != q or not all(0 <= v < n for v in b):
            problems.append(f"{base.name}: block {b} is not {q} distinct points below {n}")
        for e in combinations(sorted(b), r):
            if e in seen:
                problems.append(f"{base.name}: {r}-set {e} covered twice")
            seen.add(e)
    target = (1 - gamma) * math.comb(n, r) / math.comb(q, r)
    if summary.get("matched_blocks") != len(blocks) or len(blocks) < target:
        problems.append(
            f"{base.name}: {len(blocks)} blocks, summary {summary.get('matched_blocks')}, target {target}"
        )
    bad = weak_violation(blocks, q, r, k)
    if bad is not None:
        problems.append(f"{base.name}: not weakly {k}-sparse: {bad[1]} within {bad[0]} points")
    return problems


def check_proof(report, j_cap: int) -> list[str]:
    """verify_balancedness_props must pass and cover exactly the known instances."""
    problems = [f"balancedness: {c.name} failed" for c in report.checks if c.violations]
    got = {c.name: c.instances for c in report.checks}
    if got != PROOF_INSTANCES[j_cap]:
        problems.append(f"balancedness j_cap={j_cap}: instance counts {got}")
    return problems
