import pytest

import sbgraph as sg
from helpers import bidirected_complete, run_cli_capped


def _scalar_splitmix(seed, count):
    """Independent scalar reference for the documented stream."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 11])
def test_stream_matches_scalar_reference(seed):
    rng = sg.SplitMix64(seed)
    assert rng.next_block(10).tolist() == _scalar_splitmix(seed, 10)
    # block boundaries do not change the stream
    rng2 = sg.SplitMix64(seed)
    a = rng2.next_block(3).tolist()
    b = rng2.next_block(7).tolist()
    assert a + b == _scalar_splitmix(seed, 10)


def test_floats_are_exact_dyadics():
    values = sg.SplitMix64(7).floats(100)
    assert ((0 <= values) & (values < 1)).all()


def test_gen_deterministic():
    a = sg.gen_random_sb(6, 0.5, seed=1)
    b = sg.gen_random_sb(6, 0.5, seed=1)
    assert a == b
    assert sg.is_strongly_biconnected(a)


def test_gen_different_seeds_differ():
    a = sg.gen_random_sb(8, 0.5, seed=1)
    b = sg.gen_random_sb(8, 0.5, seed=2)
    assert a != b


def test_gen_complete_at_p_one():
    for seed in (0, 9):
        assert sg.gen_random_sb(3, 1.0, seed) == bidirected_complete(3)


def test_gen_postcondition_across_sizes():
    for i, n in enumerate((3, 5, 8, 12, 20)):
        g = sg.gen_random_sb(n, 0.6 if n < 10 else 0.3, seed=i)
        assert g.n == n
        assert sg.is_strongly_biconnected(g)


def test_gen_budget_exhaustion():
    # Expected density ~0.1 arcs per vertex can never strongly connect.
    with pytest.raises(sg.GenerationBudgetError):
        sg.gen_random_sb(100, 0.001, seed=7, max_tries=300)


def test_gen_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sg.gen_random_sb(2, 0.5, 0)
    with pytest.raises(ValueError):
        sg.gen_random_sb(5, 0.0, 0)
    with pytest.raises(ValueError):
        sg.gen_random_sb(5, 1.5, 0)


def test_gen_pair_budget_is_checked_before_sampling():
    proc = run_cli_capped(["gen", "--n", "200000", "--p", "0.5", "--seed", "1"])
    assert proc.returncode == 3, proc.stderr
    assert "more than the budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_shuffle_deterministic():
    items = list(range(10))
    sg.SplitMix64(3).shuffle(items)
    again = list(range(10))
    sg.SplitMix64(3).shuffle(again)
    assert items == again
    assert sorted(items) == list(range(10))
