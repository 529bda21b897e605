"""End-to-end acceptance gates.

Each test exercises one shipping requirement at its stated tolerance and
writes a single summary line straight to the terminal reporter, so a full
run reads as a checklist.  Heavyweight model sweeps run once in a module
fixture and are discarded variant by variant to bound peak memory.
"""

import gc
import hashlib
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ern.compiler import compile_checkpoint, gen_random_checkpoint, load, serialize
from ern.graph import ARCHITECTURES, arch_config, build_model, execute, model_stats
from ern.kernels import ConvSpec, conv_w1a2_naive, conv_w1a2_popcount
from ern.oracle import _thermo_codes, cross_check, oracle_from_manifest
from ern.pixembed import encode_image, thermo_params
from ern.quant import BnParams, apply_thresholds, fuse_thresholds, quantize_act_float
from ern.tensor import acc_dtype, pack_activations, pack_weights, unpack_activations

from conftest import random_image

VARIANT_SEEDS = [
    ("erns18", 11),
    ("erns18x075", 22),
    ("erns34", 33),
    ("erns50", 44),
    ("erns101", 55),
]

# SHA-256 of each variant's serialized model and of repr(graph.nodes), as
# variant_sweep builds them: a builder refactor must change neither
PINNED = {
    "erns18": ("7c4a4af2a10bcffac25479905064b93c63a99a3a5da4512ffe22d897b8ff926e",
               "d32391792e3183d03f3759d447a285deb242442043b9a06d3027b39d4774f4c7"),
    "erns18x075": ("853899c1700d2332db1111ddc395de50791017c48938d2a969762ef9eb2c62ab",
                   "52e92ccb2ba7cbf0b0ddcc79999a16f7ddac2ad0713a633a3f939006c0cb17d9"),
    "erns34": ("72a669bff7a6b12159f17ac256bb421556d20b9b2cfc988d5c790c02fce49053",
               "8531690b6f9b82b7d54b195a42e6c19fdf6a9343483af8dc34c7cb2862152dbb"),
    "erns50": ("6e01610d2f8145bf7045982bfe7308ae11a3fdfacb3ed607710ed2031844cab2",
               "f115d6b0a41f832e8d2f1eb6fedebc0dca1fffbb328e02846e02fbe2815ef281"),
    "erns101": ("47f736aeee5117feb0aa3cb83defc14aa3ffee7802df9872d4122289811aa1ca",
                "e9b888858db553799fe963804ce7331e4f6fb7ec59b4f13b0a654f66cbe10a68"),
}


@pytest.fixture(scope="module")
def say(request):
    tr = request.config.pluginmanager.get_plugin("terminalreporter")

    def _say(line):
        if tr is not None:
            tr.write_line(line)

    return _say


@pytest.fixture(scope="module")
def variant_sweep():
    """Random checkpoint, compile, oracle cross-check for every variant.

    Each variant is built, checked on 10 random 64x64 images, and freed
    before the next starts; only the scalar summaries and the digests of
    its file and node list are kept.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    out = {}
    for arch, seed in VARIANT_SEEDS:
        manifest = gen_random_checkpoint(arch, seed=seed, shared_const=0.7)
        model = compile_checkpoint(manifest)
        om = oracle_from_manifest(manifest)
        del manifest
        images = [rng.integers(0, 256, size=(3, 64, 64), dtype=np.uint8) for _ in range(10)]
        rep = cross_check(model, om, images)
        core = {}  # each step's output dtype, from the embedding through the head conv
        execute(model, images[0], observe=lambda step, v: core.setdefault(step.node.dst, v.dtype))
        del core["logits"]
        out[arch] = {
            "ok": rep.ok,
            "hard": sum(r.mismatches for r in rep.layers.values()),
            "logits_equal": rep.logits_equal,
            "residual_exact": rep.residual_scaling_exact,
            "core_steps": len(core),
            "core_off_table": [e for e, d in core.items() if not np.issubdtype(d, np.integer)
                               or d != model.graph.edges[e].dtype],
            "digests": (hashlib.sha256(serialize(model)).hexdigest(),
                        hashlib.sha256(repr(model.graph.nodes).encode()).hexdigest()),
        }
        del model, om, rep, images
        gc.collect()
    out["_elapsed"] = time.perf_counter() - t0
    return out


def test_a01_kernel_equivalence(say):
    """Popcount and direct convolution agree exactly on randomized cases."""
    rng = np.random.default_rng(7)
    n = 0
    t0 = time.perf_counter()
    for stride in (1, 2):
        for ksz in (1, 3, 7):
            for ic in (3, 30, 64, 70, 128):
                for _ in range(34):
                    oc = int(rng.integers(4, 49))
                    h = int(rng.integers(1, 17))
                    w = int(rng.integers(1, 17))
                    spec = ConvSpec(ic, oc, ksz, ksz, (stride, stride), (ksz // 2, ksz // 2))
                    codes = rng.integers(0, 4, size=(ic, h, w), dtype=np.uint8)
                    signs = np.where(rng.random((oc, ic, ksz, ksz)) < 0.5, -1, 1).astype(np.int8)
                    ref = conv_w1a2_naive(codes, signs, spec)
                    got = conv_w1a2_popcount(
                        pack_activations(codes), pack_weights(signs, np.ones(oc)), spec
                    )
                    assert got.dtype == ref.dtype == acc_dtype(spec.acc_bound)
                    assert np.array_equal(got, ref), f"ic={ic} k={ksz} s={stride} h={h} w={w}"
                    n += 1
    dt = time.perf_counter() - t0
    say(f"A1 kernel-equivalence PASS: {n} randomized instances exact in {dt:.1f}s (budget 60s)")
    assert n >= 1000
    assert dt < 60.0


def test_a02_fusion_exactness(say):
    """Threshold tables equal the explicit float composition on full sweeps."""
    rng = np.random.default_rng(13)
    K = 1024
    acc = np.arange(-3 * K, 3 * K + 1, dtype=np.int64).reshape(1, -1, 1)
    for _ in range(200):
        alpha = np.array([rng.uniform(0.2, 3.0)])
        gamma = np.array([rng.normal(1.0, 0.4) or 1.0])
        if rng.random() < 0.3:
            gamma = -gamma
        bn = BnParams(
            gamma=gamma,
            beta=np.array([rng.normal(0.0, 1.0)]),
            mean=np.array([rng.normal(0.0, 2.0)]),
            var=np.array([rng.uniform(0.05, 2.0)]),
            epsilon=1e-5,
            act_scale=rng.uniform(0.3, 2.5),
        )
        tbl = fuse_thresholds(alpha, bn, acc_bound=3 * K)
        got = unpack_activations(apply_thresholds(acc, tbl), 1)
        sig = np.sqrt(bn.var + bn.epsilon)
        v = bn.gamma * (alpha * acc - bn.mean) / sig + bn.beta
        want = quantize_act_float(v, bn.act_scale)
        assert np.array_equal(got, want)
    say(f"A2 fusion-exactness PASS: 200 channel draws x {acc.size} accumulators, "
        f"every code equal")


def test_a03_thermometer(say):
    """k=2 code pairs step through 7 values at the derived transitions.

    For k = 1..32 the table-driven encoder equals the oracle's direct
    evaluation of the defining map on all 256 byte values of each colour.
    """
    ramp = np.tile(np.arange(256, dtype=np.uint8), (3, 1, 1))  # (3, 1, 256)
    codes = unpack_activations(encode_image(ramp, thermo_params(2)), 6)[:2, 0, :]  # red pair
    pairs = list(map(tuple, codes.T))
    distinct = [pairs[0]]
    transitions = []
    for x in range(1, 256):
        if pairs[x] != pairs[x - 1]:
            distinct.append(pairs[x])
            transitions.append(x)
    assert len(set(pairs)) == 7
    assert transitions == [42, 84, 126, 168, 210, 252]
    assert distinct == [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]
    for k in range(1, 33):
        ck = unpack_activations(encode_image(ramp, thermo_params(k)), 3 * k)[:, 0, :]
        assert np.all(np.diff(ck.astype(np.int64), axis=1) >= 0), f"k={k}"
    # each colour runs through all 256 values, the three out of phase
    shifted = ((np.arange(256) + 85 * np.arange(3)[:, None]) % 256).astype(np.uint8)[:, None, :]
    for k in range(1, 33):
        got = unpack_activations(encode_image(shifted, thermo_params(k)), 3 * k)
        assert np.array_equal(got, _thermo_codes(shifted, k)), f"k={k}"
    say("A3 thermometer PASS: 7 distinct k=2 codes, transitions at "
        "42/84/126/168/210/252, monotone for k=1..32 and equal to the oracle's "
        "codes on all 256 byte values")


def test_a04_mac_arithmetic(say):
    """Conv MAC counts for the two reference stem layers are exact."""
    from ern.graph import macs_for_conv

    three = macs_for_conv(ConvSpec(3, 64, 7, 7, (2, 2), (3, 3)), 224, 224)
    thirty = macs_for_conv(ConvSpec(30, 64, 7, 7, (2, 2), (3, 3)), 224, 224)
    assert three == 118_013_952
    assert thirty == 1_180_139_520
    say(f"A4 mac-arithmetic PASS: 7x7 stem layers = {three:,} and {thirty:,} MACs exactly")


def test_a05_model_sizes(say):
    """Binarized sizes: exact head bytes, banded totals, sub-75% variant."""
    head18 = build_model(arch_config("erns18")).node("head.conv").spec
    head50 = build_model(arch_config("erns50")).node("head.conv").spec
    b18 = head18.in_ch * head18.out_ch * head18.kh * head18.kw // 8
    b50 = head50.in_ch * head50.out_ch * head50.kh * head50.kw // 8
    assert b18 == 64_000
    assert b50 == 256_000

    mb50 = model_stats(arch_config("erns50"), 256).binary_weight_bytes / 1e6
    mb101 = model_stats(arch_config("erns101"), 256).binary_weight_bytes / 1e6
    mb075 = model_stats(arch_config("erns18x075"), 256).binary_weight_bytes / 1e6
    assert 0.9 * 3.1 <= mb50 <= 1.1 * 3.1
    assert 0.9 * 5.6 <= mb101 <= 1.1 * 5.6
    assert mb075 <= 1.1
    say(f"A5 model-sizes PASS: heads {b18:,}/{b50:,} B exact; erns50 {mb50:.3f} MB "
        f"(3.1 +/-10%), erns101 {mb101:.3f} MB (5.6 +/-10%); erns18x075 {mb075:.3f} MB "
        f"(reported, bound 1.1)")


def test_a06_integer_only_core(say, variant_sweep):
    """No real-valued arithmetic between pixel embedding and final conv."""
    off = {a: variant_sweep[a]["core_off_table"] for a, _ in VARIANT_SEEDS}
    assert not any(off.values()), off
    steps = sum(variant_sweep[a]["core_steps"] for a, _ in VARIANT_SEEDS)
    say(f"A6 integer-only-core PASS: all {steps} step outputs from the embedding through the "
        f"head conv of the {len(off)} variants are integers at their edges' dtypes")


def test_a07_oracle_equivalence(say, variant_sweep, erns18_manifest, erns18_model):
    """Integer engine matches the float oracle on every variant, plus a
    full-resolution smoke run."""
    for arch, _ in VARIANT_SEEDS:
        r = variant_sweep[arch]
        assert r["ok"], (arch, r)
        assert r["hard"] == 0, (arch, r)
        assert r["residual_exact"], arch
        assert r["logits_equal"], arch
    t0 = time.perf_counter()
    om = oracle_from_manifest(erns18_manifest)
    rng = np.random.default_rng(31)
    smoke = [rng.integers(0, 256, size=(3, 256, 256), dtype=np.uint8) for _ in range(2)]
    rep = cross_check(erns18_model, om, smoke)
    smoke_dt = time.perf_counter() - t0
    assert rep.ok and rep.logits_equal, rep.summary()
    total = variant_sweep["_elapsed"] + smoke_dt
    say(f"A7 oracle-equivalence PASS: 5 variants x 10 images at 64x64 plus a 256x256 "
        f"smoke, 0 code mismatches, engine and oracle logits bit-identical, "
        f"{total:.0f}s (budget 600s)")
    assert total < 600.0


def test_a08_determinism_round_trip(say, rng):
    """Same inputs give identical bytes and identical logits, any thread count."""
    blob1 = serialize(compile_checkpoint(gen_random_checkpoint("erns18x075", seed=77)))
    blob2 = serialize(compile_checkpoint(gen_random_checkpoint("erns18x075", seed=77)))
    assert blob1 == blob2

    model = load(blob1)
    assert serialize(model) == blob1

    img = random_image(rng)
    base = execute(model, img).logits.tobytes()
    assert execute(model, img).logits.tobytes() == base
    for workers in (1, 2, 4):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outs = list(pool.map(lambda _: execute(model, img), range(4)))
        assert all(o.logits.tobytes() == base for o in outs), workers
    say("A8 determinism PASS: byte-identical recompiles, exact round-trip, "
        "bit-identical logits across runs and 1/2/4-thread pools")


def test_a08_presets_pinned(say, variant_sweep):
    """Every variant's .ern bytes and node list are the pinned ones."""
    got = {a: variant_sweep[a]["digests"] for a, _ in VARIANT_SEEDS}
    assert got == PINNED
    say(f"A8 pinned-presets PASS: .ern and node-list SHA-256 of all {len(got)} variants "
        f"match the pins")


def test_a09_performance_report(say, erns18_model, rng):
    """Relative kernel timing, reported but never gated."""
    img = random_image(rng, 256)
    t0 = time.perf_counter()
    fast = execute(erns18_model, img, kernel="popcount").logits
    tp = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = execute(erns18_model, img, kernel="naive").logits
    tn = time.perf_counter() - t0
    assert np.array_equal(fast, slow)
    ratio = tn / tp
    say(f"A9 performance REPORT: popcount {tp * 1e3:.0f} ms vs naive {tn * 1e3:.0f} ms "
        f"at 256x256 single-thread ({ratio:.1f}x; soft 3x target, non-gating)")


def test_a10_out_of_scope_note(say):
    """Names what the suite deliberately does not attempt."""
    say("A10 out-of-scope NOTE: dataset accuracies, training-recipe sweeps, and "
        "FPGA throughput/resource numbers need trained checkpoints and hardware; "
        "the exactness and equivalence gates above are the stand-in")
    assert len(ARCHITECTURES) == 5
