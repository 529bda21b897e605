"""Per-call tracemalloc memory of one ``ern compile`` and ``ern verify`` of a checkpoint.

Runs ``ern compile`` of the checkpoint directory into a temporary
directory, then ``ern verify`` of the result on 4 random 64x64 images
(seed 1), in this process and under tracemalloc.  Each library call
the CLI makes is wrapped at the ``ern.cli`` name it is looked up by,
and for each call the script prints the MB held when it starts, the
peak while it runs and the MB held when it returns; then the peak of
the whole run.  Run from the repository root, for example:

    PYTHONPATH=src python -m ern.cli init-random --arch erns101 --seed 1 --out ckpt
    PYTHONPATH=src python tools/release_peaks.py ckpt
"""

from __future__ import annotations

import contextlib
import functools
import io
import sys
import tempfile
import tracemalloc
from pathlib import Path

import ern.cli

CALLS = ("load_manifest", "compile_checkpoint", "serialize", "load", "oracle_from_manifest",
         "cross_check")
VERIFY = ["--images", "4", "--resolution", "64", "--seed", "1"]
MB = 1e6


class Peaks:
    """Rows of (call, held before, peak, held after) in bytes, and the run's peak."""

    def __init__(self):
        self.rows: list[tuple[str, int, int, int]] = []
        self.run_peak = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            held, peak = tracemalloc.get_traced_memory()
            self.run_peak = max(self.run_peak, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                after, peak = tracemalloc.get_traced_memory()
                self.run_peak = max(self.run_peak, peak)
                self.rows.append((name, held, peak, after))

        return call


def run(ckpt: str) -> tuple[Peaks, list[int]]:
    peaks = Peaks()
    originals = {name: getattr(ern.cli, name) for name in CALLS}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        model = str(Path(tmp) / "model.ern")
        commands = [["compile", "--manifest", ckpt, "--out", model],
                    ["verify", "--model", model, "--manifest", ckpt, *VERIFY]]
        for name, fn in originals.items():
            setattr(ern.cli, name, peaks.wrap(name, fn))
        tracemalloc.start()
        try:
            codes = [ern.cli.main(argv) for argv in commands]
            peaks.run_peak = max(peaks.run_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            for name, fn in originals.items():
                setattr(ern.cli, name, fn)
    return peaks, codes


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/release_peaks.py CHECKPOINT_DIR", file=sys.stderr)
        return 1
    peaks, codes = run(argv[0])
    print(f"{'call':22s} {'held MB':>8s} {'peak MB':>8s} {'after MB':>8s}")
    for name, held, peak, after in peaks.rows:
        print(f"{name:22s} {held / MB:8.2f} {peak / MB:8.2f} {after / MB:8.2f}")
    print(f"run peak {peaks.run_peak / MB:.2f} MB; compile exit {codes[0]}, verify exit {codes[1]}")
    return 0 if codes == [0, 0] else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
