"""The three user workloads: inputs from a seed, one request, output checks.

Every workload is a closed loop with one caller in one process.  Inputs
(seeded random checkpoint, its compiled ``.ern``, seeded uint8 images) are
made by :meth:`prepare` before anything is timed; :meth:`setup` is the
program's own start (model load), and :meth:`request` is one user request,
made only through ern's public interfaces.  :meth:`check` runs after the
timed section and returns one failure message per failed operation.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import ern
import ern.cli
from ern.compiler import gen_random_checkpoint, save_manifest
from ern.oracle import oracle_execute, oracle_from_manifest
from ern.ppm import write_ppm

LOGIT_RTOL = 1e-6  # cross_check's default logit tolerance
VERIFY_ARGS = ["--images", "4", "--resolution", "64"]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One ``ern`` command in-process; returns (exit code, captured stdout+stderr)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = ern.cli.main(argv)
    return rc, out.getvalue()


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-30)


class Workload:
    name: str
    arch: str
    images_per_request: int
    ops_per_request = 1

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.artifact = work / "model.ern"

    def prepare(self) -> None:
        """Make the inputs: the compiled ``.ern``, images, and the oracle for the checks."""
        manifest = gen_random_checkpoint(self.arch, self.seed)
        self.artifact.write_bytes(ern.serialize(ern.compile_checkpoint(manifest)))
        self.oracle = oracle_from_manifest(manifest, shared_const=manifest.shared_const)
        self.make_images(np.random.default_rng([self.seed, 1]))

    def make_images(self, rng) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        pass

    def request(self, i: int):
        raise NotImplementedError

    def warmup(self):
        """The warm-up request counted in setup time."""
        return self.request(0)

    def exited_ok(self, out) -> bool:
        """Whether a request's exit codes were 0 (the setup probes' only check)."""
        return True

    def check(self, outputs: list) -> list[str]:
        raise NotImplementedError

    def extra_metrics(self, outputs: list) -> dict[str, float]:
        """Printed metrics of this workload only, with no bound."""
        return {}

    def artifact_bytes(self) -> int:
        return self.artifact.stat().st_size

    def loaded_model(self):
        return ern.load(self.artifact.read_bytes())


class Stream(Workload):
    """erns18 at 256x256, one image per ``ern.execute`` call, model loaded once."""

    name = "erns18-256-stream"
    arch = "erns18"
    images_per_request = 1
    pool = 4
    size = 256

    def make_images(self, rng) -> None:
        for i in range(self.pool):
            img = rng.integers(0, 256, size=(3, self.size, self.size), dtype=np.uint8)
            np.save(self.work / f"img{i}.npy", img)

    def setup(self) -> None:
        self.model = ern.load(self.artifact.read_bytes())
        self.images = [np.load(self.work / f"img{i}.npy") for i in range(self.pool)]

    def request(self, i: int):
        res = ern.execute(self.model, self.images[i % self.pool])
        return res.logits, res.float_ops_core

    def check(self, outputs: list) -> list[str]:
        fails = []
        want: dict[int, np.ndarray] = {}
        first: dict[int, np.ndarray] = {}
        for i, out in enumerate(outputs):
            if isinstance(out, BaseException):
                fails.append(f"request {i}: {out!r}")
                continue
            logits, float_ops = out
            k = i % self.pool
            if k not in want:
                want[k] = oracle_execute(self.oracle, self.images[k]).logits
                first[k] = logits
            err = rel_err(logits, want[k])
            if err > LOGIT_RTOL:
                fails.append(f"request {i}: logit relative error {err:.3e} vs oracle")
            elif not np.array_equal(logits, first[k]):
                fails.append(f"request {i}: repeated image gave different logits")
            elif float_ops != 0:
                fails.append(f"request {i}: {float_ops} float ops in the integer core")
        return fails


def ten_crops(img: np.ndarray, size: int) -> list[np.ndarray]:
    """Four corners and the centre, then their mirror images.

    Cut here rather than by ern.cli, so the oracle side of the tencrop
    check shares no code with the request it checks.
    """
    _, h, w = img.shape
    corners = [(0, 0), (0, w - size), (h - size, 0), (h - size, w - size),
               ((h - size) // 2, (w - size) // 2)]
    crops = [img[:, t:t + size, l:l + size] for t, l in corners]
    return crops + [c[:, :, ::-1] for c in crops]


class TenCrop(Workload):
    """``ern infer --ten-crop`` of erns50 on 256x256 P6 files, one request at a time."""

    name = "erns50-tencrop"
    arch = "erns50"
    images_per_request = 10
    pool = 2
    size = 256
    crop = 224

    def make_images(self, rng) -> None:
        self.images = [
            rng.integers(0, 256, size=(3, self.size, self.size), dtype=np.uint8)
            for _ in range(self.pool)
        ]
        for i, img in enumerate(self.images):
            write_ppm(self.work / f"img{i}.ppm", img)
        write_ppm(self.work / "warm.ppm", ten_crops(self.images[0], self.crop)[4])

    def request(self, i: int):
        return run_cli(["infer", "--model", str(self.artifact),
                        "--image", str(self.work / f"img{i % self.pool}.ppm"),
                        "--ten-crop", "--crop-size", str(self.crop)])

    def warmup(self):
        # one 224x224 image through the same command: every code path of the
        # ten-crop request runs once, at a tenth of its cost
        return run_cli(["infer", "--model", str(self.artifact),
                        "--image", str(self.work / "warm.ppm")])

    def exited_ok(self, out) -> bool:
        return out[0] == 0

    def check(self, outputs: list) -> list[str]:
        fails = []
        want: dict[int, np.ndarray] = {}
        for i, out in enumerate(outputs):
            if isinstance(out, BaseException):
                fails.append(f"request {i}: {out!r}")
                continue
            rc, text = out
            if rc != 0:
                fails.append(f"request {i}: exit {rc}: {last_line(text)}")
                continue
            k = i % self.pool
            if k not in want:
                crops = ten_crops(self.images[k], self.crop)
                want[k] = np.mean([oracle_execute(self.oracle, c).logits for c in crops], axis=0)
            got = [int(line.split()[0]) for line in text.splitlines()]
            ref = want[k]
            top = [int(t) for t in np.argsort(ref)[::-1][:5]]
            # a rank may differ only between classes the oracle ties within LOGIT_RTOL
            tol = LOGIT_RTOL * float(np.max(np.abs(ref)))
            if len(got) != 5 or any(
                g != t and abs(ref[g] - ref[t]) > tol for g, t in zip(got, top)
            ):
                fails.append(f"request {i}: top-5 {got} != oracle top-5 {top}")
        return fails


class Release(Workload):
    """``ern compile`` of an erns101 checkpoint directory, then ``ern verify``, repeated."""

    name = "erns101-release"
    arch = "erns101"
    images_per_request = 4  # VERIFY_ARGS --images
    ops_per_request = 2  # compile and verify

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.ckpt = work / "ckpt"

    def prepare(self) -> None:
        save_manifest(gen_random_checkpoint(self.arch, self.seed), self.ckpt)

    def request(self, i: int) -> dict:
        t0 = perf_counter()
        rc_c, out_c = run_cli(["compile", "--manifest", str(self.ckpt), "--out", str(self.artifact)])
        t1 = perf_counter()
        rc_v, out_v = run_cli(["verify", "--model", str(self.artifact), "--manifest", str(self.ckpt),
                               *VERIFY_ARGS, "--seed", str(self.seed)])
        t2 = perf_counter()
        return {"compile_s": t1 - t0, "verify_s": t2 - t1, "rc": (rc_c, rc_v),
                "log": out_c + out_v, "artifact": self.artifact.read_bytes() if rc_c == 0 else b""}

    def exited_ok(self, out) -> bool:
        return out["rc"] == (0, 0)

    def check(self, outputs: list) -> list[str]:
        fails = []
        first = None
        for i, c in enumerate(outputs):
            if isinstance(c, BaseException):
                fails.append(f"cycle {i}: {c!r}")
                continue
            rc_c, rc_v = c["rc"]
            if rc_c != 0:
                fails.append(f"cycle {i}: compile exit {rc_c}: {last_line(c['log'])}")
            elif first is None:
                first = c["artifact"]
                if ern.serialize(ern.load(first)) != first:
                    fails.append("serialize(load(b)) != b")
            elif c["artifact"] != first:
                fails.append(f"cycle {i}: artifact differs from the first cycle's")
            if rc_v != 0:
                fails.append(f"cycle {i}: verify exit {rc_v}: {last_line(c['log'])}")
        return fails

    def extra_metrics(self, outputs: list) -> dict[str, float]:
        cycles = [c for c in outputs if isinstance(c, dict)]
        return {"compile_s": statistics.median(c["compile_s"] for c in cycles),
                "verify_s": statistics.median(c["verify_s"] for c in cycles)}


WORKLOADS = {w.name: w for w in (Stream, TenCrop, Release)}
