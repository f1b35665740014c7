"""The independent sparseness check and recount against the package's oracles."""

import random
from itertools import combinations

import pytest

import exact_sparse as X
from sparsesteiner import configs, process, sparse_check, stats
from sparsesteiner.configs import TripleSystem


@pytest.fixture(scope="module")
def catalog():
    return configs.enumerate_erdos(8)


def random_linear(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """A random linear system: triples in random order, kept while linear."""
    triples = list(combinations(range(n), 3))
    rng.shuffle(triples)
    covered: set[tuple[int, int]] = set()
    blocks = []
    size = rng.randint(1, n * (n - 1) // 6)
    for t in triples:
        pairs = list(combinations(t, 2))
        if any(p in covered for p in pairs):
            continue
        covered.update(pairs)
        blocks.append(t)
        if len(blocks) == size:
            break
    return sorted(blocks)


def test_matches_is_k_sparse_on_random_linear_systems():
    rng = random.Random(7)
    disagree = []
    outcomes = []
    for _ in range(480):
        n = rng.randint(6, 12)
        blocks = random_linear(rng, n)
        system = TripleSystem.from_blocks(blocks, n=n)
        for k in range(2, 7):
            want = sparse_check.is_k_sparse(system, k).ok
            got = X.scan(n, blocks, k) is None
            outcomes.append(want)
            if want != got:
                disagree.append((n, k, blocks))
    assert len(outcomes) == 2400 and not disagree
    assert 0.2 < sum(outcomes) / len(outcomes) < 0.8  # both answers well represented


def test_nonlinear_systems_fail():
    assert X.scan(6, [(0, 1, 2), (0, 1, 3)], 2) is not None
    assert X.scan(6, [(0, 1, 2), (0, 1, 2)], 6) is not None


def test_reported_violations_are_real():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(8, 12)
        blocks = random_linear(rng, n)
        for k in (4, 5, 6):
            bad = X.scan(n, blocks, k)
            if bad is not None:
                assert set(bad.blocks) <= set(blocks)
                assert len(bad.blocks) >= len(bad.points) - 2
                assert 4 <= len(bad.points) <= k + 2


def test_every_catalog_entry_grows_from_each_of_its_blocks(catalog):
    # The completeness argument: a minimal configuration on j <= 8 points is
    # found by growing tight collections from any one of its blocks.
    for entry in catalog.entries():
        blocks = entry.system.sorted_blocks()
        for root in blocks:
            rest = [b for b in blocks if b != root]
            assert X.closes_violation(entry.j, rest, root, max(4, entry.j - 2)), (entry.name, root)


def test_catalog_entries_planted_into_a_sparse_system(catalog):
    rng = random.Random(11)
    state = process.init(30, 6, 5, catalog)
    host, _ = process.run(state)
    host_blocks = host.sorted_blocks()
    assert X.scan(30, host_blocks, 6) is None
    for entry in catalog.entries():
        for _ in range(3):
            points = rng.sample(range(30), entry.j)
            planted = {tuple(sorted(points[v] for v in b)) for b in entry.system.blocks}
            blocks = sorted(set(host_blocks) | planted)
            for k in range(max(2, entry.j - 2), 7):
                assert X.scan(30, blocks, k) is not None, (entry.name, k)


@pytest.mark.parametrize("k,n,steps", [(4, 20, (0, 10, 30, 45)), (5, 18, (5, 20, 30)), (6, 20, (5, 20, 34))])
def test_recount_matches_engine(catalog, k, n, steps):
    for seed in (1, 2):
        state = process.init(n, k, seed, catalog)
        for target in steps:
            process.run(state, process.StopCondition(max_steps=target))
            blocks = sorted(state.chosen_blocks)
            recount = X.recount_available(n, blocks, k)
            assert recount.total == state.avail_count
            for u, v in combinations(range(n), 2):
                assert recount.pair_counts.get((u, v), 0) == stats.count_X_e(state, (u, v)).count
