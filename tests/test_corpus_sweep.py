"""The oracle sweep ``tools/corpus_sweep.py``."""
import argparse
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "corpus_sweep.py"
_spec = importlib.util.spec_from_file_location("corpus_sweep", _PATH)
corpus_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus_sweep)


def test_seed_ranges():
    assert corpus_sweep.seed_range("3-5") == range(3, 6)
    assert corpus_sweep.seed_range("7") == range(7, 8)
    for bad in ("5-3", "a-b", "-1"):
        with pytest.raises(argparse.ArgumentTypeError):
            corpus_sweep.seed_range(bad)


def test_right_runs_pass(capsys):
    assert corpus_sweep.main_sweep(["--corpus", "0-1", "--seeds", "0-1"]) == 0
    assert capsys.readouterr().out == "4 runs, 0 wrong, 0 of them silent\n"


@pytest.mark.parametrize("warn, tag", [(False, "silent"), (True, "loud")])
def test_wrong_runs_are_reported(monkeypatch, capsys, warn, tag):
    # A report with the wrong McMillan degree, exit 0, with and without a
    # warning line on standard error.
    def wrong(argv):
        print(json.dumps({
            "degree_sum_ok": True,
            "structure": {
                "normal_rank": 1, "infinity_indices": [], "right_minimal": [],
                "left_minimal": [], "polar_degree": 99, "zero_degree": 99,
                "finite_points": [],
            },
        }))
        if warn:
            print("warning: close call", file=sys.stderr)
        return 0

    monkeypatch.setattr(corpus_sweep, "main", wrong)
    assert corpus_sweep.main_sweep(["--corpus", "0", "--seeds", "4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"corpus 0 seed 4: differs from full_structure_exact (exit 0, {tag})",
        f"1 runs, 1 wrong, {int(not warn)} of them silent",
    ]
