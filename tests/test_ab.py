"""``tools/ab.py``'s statistics, with a stubbed runner: no benchmark
runs here."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load_tool()
CHECKOUTS = {"parent": Path("/parent"), "change": Path("/change")}
DECLARED = [{"name": "req_per_s", "better": "higher", "bound": 0.2},
            {"name": "setup_s", "better": "lower", "bound": 0.25}]


def result(req_per_s, setup_s, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"req_per_s": {"value": req_per_s, "unit": "1/s"},
                        "setup_s": {"value": setup_s, "unit": "s"}}}


class Stub:
    """Answers each side from its own list, in call order, and logs
    which checkout ran when."""

    def __init__(self, parent, change):
        self.results = {CHECKOUTS["parent"]: list(parent),
                        CHECKOUTS["change"]: list(change)}
        self.calls = []

    def __call__(self, checkout, workload, seed):
        self.calls.append((checkout.name, workload, seed))
        return self.results[checkout].pop(0)


def test_pairs_alternate_which_side_runs_first():
    stub = Stub([result(1, 1)] * 4, [result(1, 1)] * 4)
    runs = ab.run_pairs(CHECKOUTS, "jpeg_dispatch", 2026, 4, runner=stub)
    assert [name for name, _, _ in stub.calls] == [
        "parent", "change", "change", "parent",
        "parent", "change", "change", "parent"]
    assert {call[1:] for call in stub.calls} == {("jpeg_dispatch", 2026)}
    assert [(run.pair, run.side) for run in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change"), (4, "change"), (4, "parent")]


def test_medians_quartiles_and_wins():
    parent = [result(rate, setup) for rate, setup
              in ((100, 0.40), (110, 0.30), (90, 0.50), (105, 0.45),
                  (95, 0.35))]
    # the change wins req_per_s in pairs 1, 2 and 5, ties pair 3;
    # setup_s (lower is better) it wins in pairs 1 and 3
    change = [result(rate, setup) for rate, setup
              in ((120, 0.30), (111, 0.31), (90, 0.40), (100, 0.50),
                  (96, 0.36))]
    runs = ab.run_pairs(CHECKOUTS, "w", 1, 5, runner=Stub(parent, change))
    rate, setup = ab.rows(runs, DECLARED)
    # parent req_per_s sorted 90 95 100 105 110: quartiles 95 and 105
    assert rate.parent == (100, 10)
    assert rate.change == (100, 15)          # 90 96 100 111 120
    assert rate.relative == 0.0
    assert (rate.wins, rate.pairs, rate.bound) == (3, 5, 0.2)
    assert setup.parent == pytest.approx((0.40, 0.10))
    assert setup.change == pytest.approx((0.36, 0.09))
    assert setup.relative == pytest.approx(-0.1)
    assert setup.wins == 2
    table = ab.render("w", [rate, setup])
    assert "req_per_s" in table and "3/5" in table and "-10.0%" in table


def test_a_wrong_or_failing_run_fails_the_comparison():
    parent = [result(1, 1), result(1, 1, correct=False)]
    change = [result(1, 1, failed=3), result(1, 1)]
    runs = ab.run_pairs(CHECKOUTS, "w", 1, 2, runner=Stub(parent, change))
    assert ab.failures(runs) == [
        "pair 1 change: correct True, failed 3 of 100",
        "pair 2 parent: correct False, failed 0 of 100"]
    assert ab.failures(runs[:1]) == []


def test_a_single_pair_has_no_spread():
    assert ab.spread([3.0]) == (3.0, 0.0)


def test_every_run_clears_the_bytecode_it_would_reuse(tmp_path):
    cache = tmp_path / "src" / "pkg" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "module.cpython-311.pyc").write_bytes(b"")
    ab.clear_bytecode(tmp_path)
    assert not cache.exists()
    assert (tmp_path / "src" / "pkg").is_dir()
