"""Command-line surface: compile, infer, stats, verify, bench, init-random.

Exit codes: 0 success, 1 usage error, 2 input error, 3 verification
failure.  Everything is deterministic given flags and inputs except bench
timings.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
import tracemalloc

import numpy as np

from .compiler import (
    compile_checkpoint,
    gen_random_checkpoint,
    load,
    load_manifest,
    save_manifest,
    serialize,
)
from .errors import ErnError, FormatError, VerificationError
from .graph import arch_config, execute, model_stats, preset_name
from .oracle import cross_check, oracle_from_manifest, require_same_graph
from .ppm import read_ppm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; usage errors are 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _int_at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type of the count and size flags: an integer of at least 1."""
    return _int_at_least(1, text)


def seed_int(text: str) -> int:
    """argparse type of ``--seed``: an integer of at least 0, as numpy's generators take."""
    return _int_at_least(0, text)


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - np.max(logits))
    return e / e.sum()


def _load_model(path: str):
    with open(path, "rb") as f:
        return load(f)


def _read_image(args) -> np.ndarray:
    if args.raw:
        try:
            c, h, w = (int(v) for v in args.raw.split(","))
        except ValueError:
            raise _UsageError(f"--raw expects C,H,W integers, got '{args.raw}'") from None
        if min(c, h, w) < 1:
            raise _UsageError(f"--raw: C, H and W must be at least 1, got '{args.raw}'")
        data = np.fromfile(args.image, dtype=np.uint8)
        if data.size != c * h * w:
            raise FormatError(
                f"raw file holds {data.size} bytes, --raw {args.raw} needs {c * h * w}"
            )
        return data.reshape(c, h, w)
    return read_ppm(args.image)


def _ten_crops(img: np.ndarray, size: int) -> list[np.ndarray]:
    _, h, w = img.shape
    if size > h or size > w:
        raise _UsageError(f"--crop-size {size} exceeds image {h}x{w}")
    tops = [0, 0, h - size, h - size, (h - size) // 2]
    lefts = [0, w - size, 0, w - size, (w - size) // 2]
    crops = [img[:, t : t + size, l : l + size] for t, l in zip(tops, lefts)]
    return crops + [c[:, :, ::-1] for c in crops]


def cmd_compile(args) -> int:
    manifest = load_manifest(args.manifest)
    model = compile_checkpoint(manifest, shared_const=args.shared_const)
    with open(args.out, "wb") as f:
        size = serialize(model, f)
    a = model.graph.arch
    print(
        f"{args.out}: {a.block} blocks {a.counts} widths {a.channels} classes={a.classes} "
        f"k={a.k} c={model.shared_const} ({size} bytes)"
    )
    return EXIT_OK


def cmd_infer(args) -> int:
    if args.ten_crop != (args.crop_size is not None):
        raise _UsageError("--ten-crop and --crop-size must be given together")
    model = _load_model(args.model)
    img = _read_image(args)
    if args.ten_crop:
        crops = _ten_crops(img, args.crop_size)
        logits = np.mean([execute(model, c).logits for c in crops], axis=0)
    else:
        logits = execute(model, img).logits
    probs = _softmax(logits)
    order = np.argsort(probs)[::-1][: args.top]
    for idx in order:
        print(f"{int(idx)}\t{probs[idx]:.6f}")
    return EXIT_OK


def cmd_stats(args) -> int:
    stats = model_stats(arch_config(args.arch), args.resolution)
    if args.json:
        doc = {"arch": args.arch, "resolution": args.resolution, **dataclasses.asdict(stats)}
        print(json.dumps(doc, indent=2))
    else:
        print(f"{args.arch} @ {args.resolution}x{args.resolution}")
        print(f"  parameters:         {stats.param_count:,}")
        print(f"  weights-only bytes: {stats.binary_weight_bytes:,}")
        print(f"  padded bytes:       {stats.padded_weight_bytes:,}")
        print(f"  MACs:               {stats.macs:,}")
        print(f"  activations:        {stats.activations:,}")
        print(f"  acc edges int16:    {stats.acc16_edges:,}")
        print(f"  acc edges int32:    {stats.acc32_edges:,}")
        print(f"  largest acc bound:  {stats.max_acc_bound:,}")
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _load_model(args.model)
    manifest = load_manifest(args.manifest)
    require_same_graph(model.graph, manifest.graph())  # before any blob is read
    # certifies every weight word of the model against the manifest, then shares them
    om = oracle_from_manifest(manifest, shared_const=model.shared_const, model=model)
    rng = np.random.default_rng(args.seed)
    r = args.resolution
    # drawn one at a time as cross_check asks, so no more than one is held
    images = (rng.integers(0, 256, size=(3, r, r), dtype=np.uint8) for _ in range(args.images))
    report = cross_check(model, om, images)
    print(report.to_json() if args.json else report.summary())
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_bench(args) -> int:
    model = _load_model(args.model)
    rng = np.random.default_rng(args.seed)
    r = args.resolution
    img = rng.integers(0, 256, size=(3, r, r), dtype=np.uint8)
    kernels = [args.kernel] if args.kernel else ["popcount", "naive"]
    logits_by_kernel = {}
    report = {
        "arch": preset_name(model.graph.arch),
        "k": model.graph.arch.k,
        "resolution": r,
        "iters": args.iters,
        "image_seed": args.seed,
        "model_sha256": _sha256(args.model),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "kernels": {},
    }
    for kern in kernels:
        times = []
        for _ in range(args.iters):
            t0 = time.perf_counter()
            logits_by_kernel[kern] = execute(model, img, kernel=kern).logits
            times.append(time.perf_counter() - t0)
        got = report["kernels"][kern] = {
            "mean_ms": float(np.mean(times)) * 1e3,
            "min_ms": float(np.min(times)) * 1e3,
            "peak_bytes": _execute_peak(model, img, kern),
        }
        if not args.json:
            print(f"{kern:9s} mean {got['mean_ms']:9.2f} ms   min {got['min_ms']:9.2f} ms"
                  f"   ({args.iters} iters, {r}x{r})")
            print(f"{kern:9s} peak {got['peak_bytes'] / 1e6:9.2f} MB"
                  f"   (tracemalloc, one more untimed run)")
    if len(logits_by_kernel) == 2:
        a, b = logits_by_kernel["popcount"], logits_by_kernel["naive"]
        if not np.array_equal(a, b):
            raise VerificationError("popcount and naive kernels disagree on logits")
        report["logits_equal"] = True
        if not args.json:
            print("kernel paths agree: identical logits")
    if args.json:
        print(json.dumps(report, indent=2))
    return EXIT_OK


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def _execute_peak(model, img, kernel: str) -> int:
    """Peak bytes that tracemalloc sees numpy and Python allocate during one ``execute``."""
    tracemalloc.start()
    try:
        execute(model, img, kernel=kernel)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cmd_init_random(args) -> int:
    cfg = dataclasses.replace(arch_config(args.arch), k=args.k)
    manifest = gen_random_checkpoint(cfg, args.seed, shared_const=args.shared_const)
    manifest.checked_graph()  # refuse what compile would refuse before anything is written
    save_manifest(manifest, args.out)
    n = len(manifest.convs) + len(manifest.bnacts)
    print(f"{args.out}: {args.arch} seed={args.seed} ({n} layers)")
    return EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="ern", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="fold a float checkpoint into an .ern model")
    c.add_argument("--manifest", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--shared-const", type=float, default=None,
                   help="residual-branch constant c (default: manifest value, else 1.0)")
    c.set_defaults(fn=cmd_compile)

    i = sub.add_parser("infer", help="classify one image")
    i.add_argument("--model", required=True)
    i.add_argument("--image", required=True)
    i.add_argument("--top", type=positive_int, default=5)
    i.add_argument("--ten-crop", action="store_true")
    i.add_argument("--crop-size", type=positive_int, default=None)
    i.add_argument("--raw", default=None, metavar="C,H,W",
                   help="treat --image as raw uint8 tensor bytes of this shape")
    i.set_defaults(fn=cmd_infer)

    s = sub.add_parser("stats", help="parameter/MAC/size arithmetic for an architecture")
    s.add_argument("--arch", required=True)
    s.add_argument("--resolution", type=positive_int, default=256)
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_stats)

    v = sub.add_parser("verify", help="cross-check a model against its float oracle")
    v.add_argument("--model", required=True)
    v.add_argument("--manifest", required=True)
    v.add_argument("--images", type=positive_int, default=10)
    v.add_argument("--seed", type=seed_int, default=0)
    v.add_argument("--resolution", type=positive_int, default=64)
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="time the kernel paths and report their memory peak")
    b.add_argument("--model", required=True)
    b.add_argument("--iters", type=positive_int, default=3)
    b.add_argument("--kernel", choices=["popcount", "naive"], default=None)
    b.add_argument("--resolution", type=positive_int, default=256)
    b.add_argument("--seed", type=seed_int, default=0)
    b.add_argument("--json", action="store_true",
                   help="print one JSON object: times, peaks, the model's SHA-256, "
                        "numpy version and CPU count")
    b.set_defaults(fn=cmd_bench)

    r = sub.add_parser("init-random", help="write a seeded random checkpoint manifest")
    r.add_argument("--arch", required=True)
    r.add_argument("--seed", type=seed_int, required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--k", type=positive_int, default=10)
    r.add_argument("--shared-const", type=float, default=1.0)
    r.set_defaults(fn=cmd_init_random)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as e:
        print(f"ern: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as e:
        print(f"ern: verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except ErnError as e:
        print(f"ern: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"ern: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
