"""Each output check passes on real output and rejects a broken copy of it."""

import json
import random
from itertools import combinations

import pytest

import checks
from sparsesteiner import cli, configs, extensions, general_designs


@pytest.fixture(scope="module")
def run_out(tmp_path_factory):
    base = tmp_path_factory.mktemp("run") / "r"
    assert cli.main(["run", "--n", "40", "--k", "4", "--gamma", "0.3", "--seed", "2", "--out", str(base)]) == 0
    return base


@pytest.fixture(scope="module")
def design_out(tmp_path_factory):
    base = tmp_path_factory.mktemp("design") / "d"
    argv = ["design", "--n", "40", "--q", "4", "--r", "2", "--k", "3", "--gamma", "0.5", "--seed", "4"]
    assert cli.main([*argv, "--out", str(base)]) == 0
    return base


def copy_run(src, dst_dir):
    dst = dst_dir / "c"
    for suffix in (".sts", ".stats.csv", ".json"):
        dst.with_suffix(suffix).write_text(src.with_suffix(suffix).read_text())
    return dst


def test_real_run_passes(run_out):
    assert checks.check_run(run_out, 40, 4, 0.3) == []


def test_k6_run_passes(tmp_path):
    base = tmp_path / "r6"
    argv = ["run", "--n", "40", "--k", "6", "--gamma", "0.5", "--seed", "3", "--triples", "2"]
    assert cli.main([*argv, "--out", str(base)]) == 0
    assert checks.check_run(base, 40, 6, 0.5) == []


def test_planted_pasch_rejected(run_out, tmp_path):
    base = copy_run(run_out, tmp_path)
    n, blocks = checks.read_sts(base.with_suffix(".sts"))
    pts = [0, 1, 2, 3, 4, 5]
    kept = [b for b in blocks if not set(b) & set(pts)]
    pasch = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]
    lines = [f"sts v1 n={n}"] + [f"{a} {b} {c}" for a, b, c in sorted(kept + pasch)]
    base.with_suffix(".sts").write_text("\n".join(lines) + "\n")
    problems = checks.check_run(base, 40, 4, 0.3)
    assert any("not 4-sparse" in p for p in problems)


def test_duplicate_block_line_rejected(run_out, tmp_path):
    base = copy_run(run_out, tmp_path)
    lines = base.with_suffix(".sts").read_text().splitlines()
    lines.insert(2, lines[1])
    base.with_suffix(".sts").write_text("\n".join(lines) + "\n")
    assert any("repeated or out of order" in p for p in checks.check_run(base, 40, 4, 0.3))


def edit_last_row(base, column, delta):
    path = base.with_suffix(".stats.csv")
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    cells = lines[-1].split(",")
    idx = header.index(column)
    cells[idx] = str(int(cells[idx]) + delta)
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_wrong_avail_rejected(run_out, tmp_path):
    base = copy_run(run_out, tmp_path)
    edit_last_row(base, "avail", 1)
    assert any("csv avail" in p for p in checks.check_run(base, 40, 4, 0.3))


def test_wrong_pair_count_rejected(run_out, tmp_path):
    base = copy_run(run_out, tmp_path)
    header = base.with_suffix(".stats.csv").read_text().splitlines()[1].split(",")
    column = next(c for c in header if c.endswith(":X") and c.startswith("e"))
    edit_last_row(base, column, 1)
    assert any("X_e" in p for p in checks.check_run(base, 40, 4, 0.3))


def test_summary_mismatch_rejected(run_out, tmp_path):
    base = copy_run(run_out, tmp_path)
    summary = json.loads(base.with_suffix(".json").read_text())
    summary["uncovered_left"] += 3
    summary["available_left"] -= 1
    base.with_suffix(".json").write_text(json.dumps(summary))
    problems = checks.check_run(base, 40, 4, 0.3)
    assert any("uncovered_left" in p for p in problems)
    assert any("available_left" in p for p in problems)


def test_real_design_passes(design_out):
    assert checks.check_design(design_out, 40, 4, 2, 3, 0.5) == []


def copy_design(src, dst_dir):
    dst = dst_dir / "c"
    for suffix in (".qsys", ".json"):
        dst.with_suffix(suffix).write_text(src.with_suffix(suffix).read_text())
    return dst


def test_pair_covered_twice_rejected(design_out, tmp_path):
    base = copy_design(design_out, tmp_path)
    lines = base.with_suffix(".qsys").read_text().splitlines()
    a, b, *_ = lines[1].split(",")
    others = [v for v in range(40) if str(v) not in lines[1].split(",")][:2]
    lines.append(",".join(map(str, sorted([int(a), int(b), *others]))))
    base.with_suffix(".qsys").write_text("\n".join(lines) + "\n")
    assert any("covered twice" in p for p in checks.check_design(base, 40, 4, 2, 3, 0.5))


def test_short_design_rejected(design_out, tmp_path):
    base = copy_design(design_out, tmp_path)
    lines = base.with_suffix(".qsys").read_text().splitlines()
    base.with_suffix(".qsys").write_text("\n".join(lines[:40]) + "\n")
    assert any("target" in p for p in checks.check_design(base, 40, 4, 2, 3, 0.5))


def test_crowded_design_rejected(design_out, tmp_path):
    base = copy_design(design_out, tmp_path)
    header = base.with_suffix(".qsys").read_text().splitlines()[0]
    # Three blocks on six points (which also cover pairs twice: in a partial
    # (n,4,2) system any three blocks span at least nine points).
    crowded = ["0,1,2,3", "0,1,4,5", "2,3,4,5"]
    base.with_suffix(".qsys").write_text("\n".join([header, *crowded]) + "\n")
    problems = checks.check_design(base, 40, 4, 2, 3, 0.5)
    assert any("not weakly 3-sparse" in p for p in problems)


def random_qsystem(rng, n, q, r):
    blocks, covered = [], set()
    cands = list(combinations(range(n), q))
    rng.shuffle(cands)
    for b in cands[: 3 * n]:
        rsets = set(combinations(b, r))
        if rsets & covered:
            continue
        covered |= rsets
        blocks.append(b)
    return blocks


@pytest.mark.parametrize("q,r,ks", [(4, 2, (3, 4)), (4, 3, (3, 4, 5))])
def test_weak_violation_matches_package(q, r, ks):
    rng = random.Random(5)
    results = []
    for _ in range(150):
        n = rng.randint(7, 11)
        blocks = random_qsystem(rng, n, q, r)
        system = general_designs.QSystem.from_blocks(n, q, r, blocks)
        for k in ks:
            want = general_designs.is_weakly_k_sparse(system, k).ok
            assert (checks.weak_violation(blocks, q, r, k) is None) == want
            results.append(want)
    if r == 3:
        assert 0 < sum(results) < len(results)


def test_proof_instance_counts_guarded():
    report = extensions.verify_balancedness_props(configs.enumerate_erdos(6), j_cap=6)
    assert checks.check_proof(report, 6) == []
    report.checks[0].instances -= 1
    assert checks.check_proof(report, 6)
