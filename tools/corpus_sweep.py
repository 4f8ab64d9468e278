#!/usr/bin/env python3
"""Judge ``strongmin structure`` against the exact oracle over a corpus sweep.

    python3 tools/corpus_sweep.py [--corpus 24-123] [--seeds 0-999]

For every corpus seed in ``--corpus`` (``tests/corpus.exact_instance``) the
quadruple is written once and its exact structure computed once
(``full_structure_exact``); then the CLI ``structure`` command runs on it
under every pipeline seed in ``--seeds`` (inclusive ranges).  Each run is
judged by ``bench/workloads.oracle_check``, the check of the benchmark's
``oracle_corpus`` workload.  A wrong run is silent when it exits 0 without
a ``warning:`` line on standard error.  Prints each wrong run as it is
found and a summary line; exits 1 when any run is wrong.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from corpus import exact_instance  # noqa: E402
from strongmin.cli import main  # noqa: E402
from strongmin.exact import full_structure_exact  # noqa: E402
from strongmin.fileio import write_quadruple  # noqa: E402
from workloads import oracle_check  # noqa: E402


def seed_range(text: str) -> range:
    """``a-b`` (inclusive) or a single ``a``."""
    lo, _, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a range a-b, got {text!r}")
    if not 0 <= first <= last:
        raise argparse.ArgumentTypeError(f"expected 0 <= a <= b, got {text!r}")
    return range(first, last + 1)


def sweep(corpus_seeds, pipeline_seeds) -> int:
    runs = wrong = silent = 0
    with tempfile.TemporaryDirectory(prefix="corpus_sweep_") as workdir:
        for cs in corpus_seeds:
            quad, R, cands = exact_instance(cs)
            check = oracle_check(full_structure_exact(R, candidates=cands))
            path = str(Path(workdir) / f"corpus_{cs}.json")
            write_quadruple(path, quad.to_numeric())
            for ps in pipeline_seeds:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(["structure", path, "--seed", str(ps)])
                runs += 1
                reason = check(rc, out.getvalue())
                if reason is None:
                    continue
                wrong += 1
                quiet = rc == 0 and "warning:" not in err.getvalue()
                silent += quiet
                tag = "silent" if quiet else "loud"
                print(f"corpus {cs} seed {ps}: {reason} (exit {rc}, {tag})", flush=True)
    print(f"{runs} runs, {wrong} wrong, {silent} of them silent")
    return 1 if wrong else 0


def main_sweep(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corpus", type=seed_range, default=seed_range("24-123"))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-999"))
    args = parser.parse_args(argv)
    return sweep(args.corpus, args.seeds)


if __name__ == "__main__":
    sys.exit(main_sweep())
