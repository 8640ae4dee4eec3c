"""transfer_check settles trials by the exact extension property at m* and
enumerates only the parameters in demanded edges; the oracle walks every
extension of every parameter.  Both must give the same reports."""

import concurrent.futures
import hashlib

import pytest

from hypertemplate import (
    InputError,
    complete_template,
    corrupt_level,
    hypergraph,
    m_star,
    max_extension_arity,
    naive_transfer_check,
    random_template,
    transfer_check,
)

SIZES = {2: 5, 3: 4, 4: 4}
TRIALS = 66  # two 64-trial chunks, so workers=2 really runs two processes


def grid():
    """Valid templates for k = 2..4 and m = 1..4, and each one corrupted at
    m* with three keep fractions."""
    out = []
    for k in (2, 3, 4):
        for m in (1, 2, 3, 4):
            f = min(m, SIZES[k])
            t = random_template(k, [SIZES[k]] * 3, 0.8, [1, f, f], seed=10 * k + m)
            ms = m_star(t, m)
            out.append((f"k{k}-m{m}-valid", t, m))
            for keep in (0.0, 0.3, 0.7):
                bad = corrupt_level(t, ms, keep_fraction=keep, seed=m)
                out.append((f"k{k}-m{m}-keep{keep}", bad, m))
    return out


GRID = grid()


def canonical(rep) -> str:
    rows = [f"{rep.m} {rep.m_star} {rep.trials}"]
    for c in rep.counterexamples:
        s = c.spec
        rows.append(repr((
            c.trial, s.x_leaf, s.param_leaves, sorted(s.positive), s.equality,
            c.extension, c.consistent_low, c.consistent_high,
        )))
    return "\n".join(rows)


@pytest.mark.parametrize("name,t,m", GRID, ids=[g[0] for g in GRID])
def test_matches_oracle_at_both_worker_counts(name, t, m):
    seed = len(name)
    want = naive_transfer_check(t, m, TRIALS, seed)
    assert transfer_check(t, m, TRIALS, seed, workers=1) == want
    assert transfer_check(t, m, TRIALS, seed, workers=2) == want


# recorded with the full-product trial, before trials were settled by the
# extension property at m*
PINNED_COUNTEREXAMPLES = 64
PINNED_DIGEST = "f0ecacfeb64a3cc217bd267879994d4fc0b4647b3cf9e90bde2620f30aebdb99"


def test_reports_pinned():
    # the oracle draws trials the same way as transfer_check, so the pin
    # catches both drifting together
    reps = [transfer_check(t, m, TRIALS, len(name)) for name, t, m in GRID]
    assert sum(len(rep.counterexamples) for rep in reps) == PINNED_COUNTEREXAMPLES
    text = "\n\n".join(canonical(rep) for rep in reps)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGEST


def test_unproven_extension_property_settles_no_trial(monkeypatch):
    # a count the node bound kept from being proven settles no trial: the
    # search stops before ruling out covers of two tuples, so trials
    # demanding two edges must still be enumerated
    name, t, m = next(g for g in GRID if g[0] == "k2-m2-keep0.0")
    want = naive_transfer_check(t, m, TRIALS, len(name))
    assert want.counterexamples
    monkeypatch.setattr(hypergraph, "COVER_SEARCH_NODES", 0)
    assert max_extension_arity(t.level_hypergraph(want.m_star), m) == 1
    assert transfer_check(t, m, TRIALS, len(name)) == want


class TestWorkerPool:
    def test_workers_below_one_rejected(self):
        t = complete_template(2, 3)
        for workers in (0, -1):
            with pytest.raises(InputError):
                transfer_check(t, 1, trials=5, seed=0, workers=workers)

    @pytest.mark.parametrize(
        "workers,cpus,trials,expected",
        [
            (100000, 2, 1000, 2),  # capped by the CPU count
            (100000, 64, 130, 3),  # capped by the number of 64-trial chunks
            (3, 64, 1000, 3),  # as asked
            (100000, None, 1000, None),  # unknown CPU count: serial
            (4, 8, 64, None),  # one chunk: serial
        ],
    )
    def test_pool_size_capped(self, monkeypatch, workers, cpus, trials, expected):
        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        t = complete_template(2, 3)
        rep = transfer_check(t, 1, trials=trials, seed=0, workers=workers)
        assert rep.trials == trials and rep.holds
        assert started == ([] if expected is None else [expected])
