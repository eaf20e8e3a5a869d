"""tools/bench.py, which writes a BENCH_<n>.json from benchmark runs.

Only its summary and its argument checks are tested here; a full run
takes minutes per workload.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench", os.path.join(ROOT, "tools", "bench.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _runs(values):
    return [{"wall_s": {"value": v, "unit": "s"}} for v in values]


def test_summary_gives_median_and_inclusive_iqr_in_seed_order():
    out = bench.summary(_runs([5.0, 1.0, 4.0, 2.0, 3.0]))
    assert out == {"wall_s": {"unit": "s", "median": 3.0, "iqr": 2.0,
                              "values": [5.0, 1.0, 4.0, 2.0, 3.0]}}


def test_summary_of_equal_values_has_no_spread():
    out = bench.summary(_runs([0.8] * 5))
    assert out["wall_s"]["median"] == 0.8 and out["wall_s"]["iqr"] == 0.0


def test_one_seed_is_refused_before_any_run(capsys):
    with pytest.raises(SystemExit) as info:
        bench.main(["--out", "unused.json", "--seeds", "1"])
    assert info.value.code == 2 and "two seeds" in capsys.readouterr().err
