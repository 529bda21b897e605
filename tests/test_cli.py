import dataclasses
import hashlib
import importlib.util
import json
import os
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ern.cli
from ern.cli import main
from ern.compiler import load, save_manifest, serialize
from ern.graph import execute
from ern.ppm import write_ppm

from conftest import (
    HEADER_AT,
    break_after_first_read,
    replace_table,
    resign,
    rewrite_threshold_row,
    tie_checkpoint,
)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One checkpoint, compiled model, and test image shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    ckpt = root / "ckpt"
    model = root / "m.ern"
    assert main(["init-random", "--arch", "erns18x075", "--seed", "7",
                 "--out", str(ckpt), "--shared-const", "0.5"]) == 0
    assert main(["compile", "--manifest", str(ckpt), "--out", str(model)]) == 0
    rng = np.random.default_rng(99)
    img = rng.integers(0, 256, size=(3, 96, 96), dtype=np.uint8)
    ppm = root / "img.ppm"
    write_ppm(ppm, img)
    return {"root": root, "ckpt": ckpt, "model": model, "img": img, "ppm": ppm}


def infer_lines(capsys, args):
    assert main(["infer"] + args) == 0
    return capsys.readouterr().out.strip().splitlines()


class TestInfer:
    def test_top5_format(self, ws, capsys):
        lines = infer_lines(capsys, ["--model", str(ws["model"]), "--image", str(ws["ppm"])])
        assert len(lines) == 5
        probs = []
        for line in lines:
            idx, prob = line.split("\t")
            assert 0 <= int(idx) < 1000
            probs.append(float(prob))
        assert probs == sorted(probs, reverse=True)
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_top_flag(self, ws, capsys):
        lines = infer_lines(
            capsys, ["--model", str(ws["model"]), "--image", str(ws["ppm"]), "--top", "3"]
        )
        assert len(lines) == 3

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_rejected(self, ws, capsys, top):
        rc = main(["infer", "--model", str(ws["model"]), "--image", str(ws["ppm"]),
                   "--top", top])
        assert rc == 1
        assert capsys.readouterr().out == ""

    def test_raw_input_matches_ppm(self, ws, capsys):
        raw = ws["root"] / "img.raw"
        raw.write_bytes(ws["img"].tobytes())
        a = infer_lines(capsys, ["--model", str(ws["model"]), "--image", str(ws["ppm"])])
        b = infer_lines(
            capsys,
            ["--model", str(ws["model"]), "--image", str(raw), "--raw", "3,96,96"],
        )
        assert a == b

    def test_raw_size_mismatch(self, ws, capsys):
        raw = ws["root"] / "short.raw"
        raw.write_bytes(b"\x00" * 100)
        rc = main(["infer", "--model", str(ws["model"]), "--image", str(raw),
                   "--raw", "3,96,96"])
        assert rc == 2

    def test_raw_bad_spec(self, ws):
        rc = main(["infer", "--model", str(ws["model"]), "--image", str(ws["ppm"]),
                   "--raw", "3x96x96"])
        assert rc == 1

    @pytest.mark.parametrize("spec", ["3,-2,-2", "-1,-1,12", "3,0,4"])
    def test_raw_dimension_below_one(self, ws, capsys, spec):
        # the first two pass the 12-byte size check, since (-2) * (-2) * 3 == 12
        raw = ws["root"] / "twelve.raw"
        raw.write_bytes(b"\x01" * 12)
        rc = main(["infer", "--model", str(ws["model"]), "--image", str(raw), f"--raw={spec}"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--raw" in captured.err

    def test_missing_image(self, ws):
        assert main(["infer", "--model", str(ws["model"]), "--image", "/nope.ppm"]) == 2

    def test_corrupt_model(self, ws):
        bad = ws["root"] / "bad.ern"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["infer", "--model", str(bad), "--image", str(ws["ppm"])]) == 2

    def test_unknown_block_kind(self, ws, capsys):
        # the header's block kind byte is 0 (conv) or 1 (bottleneck)
        blob = bytearray(ws["model"].read_bytes())
        blob[HEADER_AT["block"]] = 0xFF
        bad = ws["root"] / "badblock.ern"
        bad.write_bytes(resign(bytes(blob[16:-4])))
        assert main(["infer", "--model", str(bad), "--image", str(ws["ppm"])]) == 2
        assert "block kind 255" in capsys.readouterr().err

    def test_huge_header_number(self, ws, capsys):
        # more digits than Python's int() converts by default
        bad = ws["root"] / "huge.ppm"
        bad.write_bytes(b"P6\n" + b"9" * 5000 + b" 4\n255\n" + bytes(48))
        assert main(["infer", "--model", str(ws["model"]), "--image", str(bad)]) == 2
        assert "header" in capsys.readouterr().err

    def test_bad_threshold_table(self, ws, capsys):
        # a threshold far past the bound
        bad = ws["root"] / "badtable.ern"
        blob = rewrite_threshold_row(ws["model"].read_bytes(), "s2.b1.bn0", 10**6)
        bad.write_bytes(blob)
        assert main(["infer", "--model", str(bad), "--image", str(ws["ppm"])]) == 2
        assert "s2.b1.bn0" in capsys.readouterr().err


class TestTenCrop:
    def test_constant_image_matches_single_crop(self, ws, capsys):
        # every crop of a constant image is identical, so the averaged
        # logits equal any single crop's
        flat = ws["root"] / "flat.ppm"
        write_ppm(flat, np.full((3, 96, 96), 130, np.uint8))
        ten = infer_lines(capsys, ["--model", str(ws["model"]), "--image", str(flat),
                                   "--ten-crop", "--crop-size", "64"])
        crop = ws["root"] / "crop.ppm"
        write_ppm(crop, np.full((3, 64, 64), 130, np.uint8))
        one = infer_lines(capsys, ["--model", str(ws["model"]), "--image", str(crop)])
        assert ten == one

    def test_requires_crop_size(self, ws):
        rc = main(["infer", "--model", str(ws["model"]), "--image", str(ws["ppm"]),
                   "--ten-crop"])
        assert rc == 1

    def test_crop_size_requires_ten_crop(self, ws, capsys):
        # a crop size alone used to be ignored: exit 0 with the full image's top-5
        rc = main(["infer", "--model", str(ws["model"]), "--image", str(ws["ppm"]),
                   "--crop-size", "64"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--ten-crop" in captured.err

    def test_crop_larger_than_image(self, ws):
        rc = main(["infer", "--model", str(ws["model"]), "--image", str(ws["ppm"]),
                   "--ten-crop", "--crop-size", "128"])
        assert rc == 1


class TestStats:
    def test_json_fields(self, capsys):
        assert main(["stats", "--arch", "erns18", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["arch"] == "erns18"
        assert doc["param_count"] == 11797376
        assert doc["binary_weight_bytes"] == 1474672
        assert (doc["acc16_edges"], doc["acc32_edges"], doc["max_acc_bound"]) == (32, 0, 28416)

    @pytest.mark.parametrize("arch,acc32,bound", [("erns34", 3, 42240), ("erns50", 0, 13824)])
    def test_acc_widths(self, capsys, arch, acc32, bound):
        assert main(["stats", "--arch", arch, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["acc32_edges"], doc["max_acc_bound"]) == (acc32, bound)
        assert main(["stats", "--arch", arch]) == 0
        out = capsys.readouterr().out
        assert f"acc edges int32:    {acc32}" in out and f"largest acc bound:  {bound:,}" in out

    def test_text_output(self, capsys):
        assert main(["stats", "--arch", "erns50", "--resolution", "224"]) == 0
        out = capsys.readouterr().out
        assert "erns50 @ 224x224" in out
        assert "3,202,672" in out

    def test_unknown_arch(self):
        assert main(["stats", "--arch", "vgg16"]) == 2


class TestVerify:
    def test_clean_model_passes(self, ws, capsys):
        rc = main(["verify", "--model", str(ws["model"]), "--manifest", str(ws["ckpt"]),
                   "--images", "2", "--resolution", "48"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_json_report(self, ws, capsys):
        rc = main(["verify", "--model", str(ws["model"]), "--manifest", str(ws["ckpt"]),
                   "--images", "1", "--resolution", "48", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["images"] == 1

    def test_json_report_is_strict_json(self, ws, capsys, monkeypatch):
        # a NaN alpha_out makes every logit NaN; the report still holds no
        # NaN, so it is strict JSON
        def load_nan(data):
            return dataclasses.replace(load(data), alpha_out=float("nan"))

        def no_constant(token):
            raise ValueError(f"non-standard JSON constant {token}")

        monkeypatch.setattr(ern.cli, "load", load_nan)
        rc = main(["verify", "--model", str(ws["model"]), "--manifest", str(ws["ckpt"]),
                   "--images", "1", "--resolution", "32", "--json"])
        assert rc == 3
        doc = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert doc["ok"] is False
        assert doc["logits_equal"] is False
        assert doc["first_divergence"] == "logits"

    def test_tampered_model_fails(self, ws, capsys):
        model = load(ws["model"].read_bytes())
        name = "s2.b1.bn1"
        tbl = model.thresholds[name]
        tampered = dataclasses.replace(
            model,
            thresholds={**model.thresholds, name: replace_table(tbl, t=tbl.t + 25)},
        )
        bad = ws["root"] / "tampered.ern"
        bad.write_bytes(serialize(tampered))
        rc = main(["verify", "--model", str(bad), "--manifest", str(ws["ckpt"]),
                   "--images", "1", "--resolution", "48"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert name in out


    def test_thresholds_on_ties_pass(self, tmp_path, capsys):
        # a valid checkpoint whose code steps sit on exact ties: verify
        # exited 3, first diverging at s1.b1.bn1, while the fold rounded
        # in real arithmetic and the oracle in floats
        save_manifest(tie_checkpoint(), tmp_path / "ckpt")
        model = tmp_path / "m.ern"
        assert main(["compile", "--manifest", str(tmp_path / "ckpt"), "--out", str(model)]) == 0
        rc = main(["verify", "--model", str(model), "--manifest", str(tmp_path / "ckpt"),
                   "--images", "4", "--resolution", "64", "--json"])
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert rc == 0, doc
        assert doc["ok"] and doc["logits_equal"]
        assert doc["first_divergence"] is None

    def test_flipped_weight_bit_fails(self, ws, capsys):
        # serialize recomputes both CRCs, so the file loads; the oracle build's
        # weight certificate names the conv before any image runs
        model = load(ws["model"].read_bytes())
        name = "s3.b2.conv1"
        w = model.weights[name]
        bits = w.bits.copy()
        bits[7, 2, 1, 1] ^= np.uint64(1 << 17)
        flipped = dataclasses.replace(
            model, weights={**model.weights, name: dataclasses.replace(w, bits=bits)}
        )
        bad = ws["root"] / "flipped.ern"
        bad.write_bytes(serialize(flipped))
        rc = main(["verify", "--model", str(bad), "--manifest", str(ws["ckpt"]),
                   "--images", "1", "--resolution", "32"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("ern: verification failed: ")
        assert f"'{name}'" in err


class TestBench:
    def test_both_paths_and_agreement(self, ws, capsys):
        rc = main(["bench", "--model", str(ws["model"]), "--iters", "1",
                   "--resolution", "48"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "popcount" in out and "naive" in out
        assert "identical logits" in out

    def test_peak_of_one_untimed_run(self, ws, capsys):
        rc = main(["bench", "--model", str(ws["model"]), "--iters", "2",
                   "--kernel", "popcount", "--resolution", "48"])
        assert rc == 0
        assert not tracemalloc.is_tracing()
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("popcount  mean")
        name, field, mb, unit = lines[1].split()[:4]
        assert (name, field, unit) == ("popcount", "peak", "MB")
        # the same run measured here, after a warm-up as bench's timed runs
        # are: the 48x48 image bench draws from seed 0
        img = np.random.default_rng(0).integers(0, 256, size=(3, 48, 48), dtype=np.uint8)
        model = load(ws["model"].read_bytes())
        execute(model, img)
        tracemalloc.start()
        try:
            execute(model, img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert float(mb) == pytest.approx(peak / 1e6, rel=0.1)

    def test_json_report(self, ws, capsys):
        rc = main(["bench", "--model", str(ws["model"]), "--iters", "2",
                   "--resolution", "48", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)  # one object, nothing else
        assert (doc["arch"], doc["k"], doc["resolution"], doc["iters"]) == ("erns18x075", 10, 48, 2)
        assert doc["numpy"] == np.__version__ and doc["cpu_count"] == os.cpu_count()
        assert doc["image_seed"] == 0
        assert doc["model_sha256"] == hashlib.sha256(ws["model"].read_bytes()).hexdigest()
        assert set(doc["kernels"]) == {"popcount", "naive"} and doc["logits_equal"] is True
        for kern in doc["kernels"].values():
            assert 0 < kern["min_ms"] <= kern["mean_ms"]
            assert kern["peak_bytes"] > 0
        assert not tracemalloc.is_tracing()

    def test_json_report_of_one_kernel(self, ws, capsys):
        rc = main(["bench", "--model", str(ws["model"]), "--iters", "1",
                   "--kernel", "popcount", "--resolution", "48", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["kernels"]) == {"popcount"} and "logits_equal" not in doc

    def test_threads_flag_removed(self, ws):
        rc = main(["bench", "--model", str(ws["model"]), "--iters", "1",
                   "--threads", "2", "--kernel", "popcount", "--resolution", "48"])
        assert rc == 1


class TestCompile:
    def test_deterministic_output(self, ws, capsys):
        out1 = ws["root"] / "a.ern"
        out2 = ws["root"] / "b.ern"
        assert main(["compile", "--manifest", str(ws["ckpt"]), "--out", str(out1)]) == 0
        assert main(["compile", "--manifest", str(ws["ckpt"]), "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() == ws["model"].read_bytes()

    def test_prints_the_stored_layout(self, ws, capsys):
        out = ws["root"] / "layout.ern"
        assert main(["compile", "--manifest", str(ws["ckpt"]), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"{out}: conv blocks (2, 2, 2, 2) widths (64, 128, 256, 384) classes=1000 k=10 "
            f"c=0.5 ({out.stat().st_size} bytes)\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_overflowing_shared_const(self, tmp_path, capsys):
        # init-random takes any finite c > 0; at 1e308 the first BnAct fed by
        # c cannot fold, so compile refuses it by name instead of writing
        # tables that verify cannot check
        ckpt = tmp_path / "ckpt"
        assert main(["init-random", "--arch", "erns18x075", "--seed", "0",
                     "--shared-const", "1e308", "--out", str(ckpt)]) == 0
        capsys.readouterr()
        out = tmp_path / "x.ern"
        assert main(["compile", "--manifest", str(ckpt), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("ern: layer 's1.b1.bn0': ")
        assert not out.exists()

    def test_shared_const_override_changes_bytes(self, ws, capsys):
        out = ws["root"] / "c2.ern"
        assert main(["compile", "--manifest", str(ws["ckpt"]), "--out", str(out),
                     "--shared-const", "2.0"]) == 0
        capsys.readouterr()
        assert out.read_bytes() != ws["model"].read_bytes()
        assert load(out.read_bytes()).shared_const == 2.0

    def test_missing_blob_exit_and_message(self, ws, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(ws["ckpt"], broken)
        (broken / "s1.b2.conv1.bin").unlink()
        rc = main(["compile", "--manifest", str(broken), "--out", str(tmp_path / "x.ern")])
        assert rc == 2
        assert "s1.b2.conv1" in capsys.readouterr().err


def _argv(ws, tmp_path, command, ckpt):
    """``ern compile`` of ``ckpt``, or ``ern verify`` of the shared model against it."""
    return {
        "compile": ["compile", "--manifest", str(ckpt), "--out", str(tmp_path / "x.ern")],
        "verify": ["verify", "--model", str(ws["model"]), "--manifest", str(ckpt),
                   "--images", "1", "--resolution", "32"],
    }[command]


def _without_layer_kind(doc):
    del doc["layers"]["stem.conv1"]["kind"]
    return doc


def _with_bnact_field(key, value):
    def mutate(doc):
        next(e for e in doc["layers"].values() if e["kind"] == "bnact")[key] = value
        return doc
    return mutate


class TestMalformedManifest:
    """Every malformed manifest ends in exit 2 with the field named, never a traceback."""

    def _compile(self, ws, tmp_path, mutate):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ws["ckpt"], ckpt)
        doc = mutate(json.loads((ckpt / "manifest.json").read_text()))
        (ckpt / "manifest.json").write_text(json.dumps(doc))
        return main(["compile", "--manifest", str(ckpt), "--out", str(tmp_path / "x.ern")])

    @pytest.mark.parametrize(
        "mutate,named",
        [
            (lambda doc: [], "top level"),
            (lambda doc: {**doc, "layers": []}, "layers"),
            (lambda doc: {k: v for k, v in doc.items() if k != "arch"}, "arch"),
            (_without_layer_kind, "kind"),
            (lambda doc: {**doc, "k": "x"}, "'k'"),
            (lambda doc: {**doc, "shared_const": "a"}, "shared_const"),
            (_with_bnact_field("channels", "z"), "channels"),
            (_with_bnact_field("act_scale", None), "act_scale"),
            (lambda doc: {**doc, "shared_const": 10**400}, "shared_const"),
            (_with_bnact_field("epsilon", 10**400), "epsilon"),
        ],
        ids=["top-level-list", "layers-list", "missing-arch", "layer-without-kind", "k-string",
             "shared-const-string", "channels-string", "act-scale-null", "shared-const-huge-int",
             "epsilon-huge-int"],
    )
    def test_field_named(self, ws, tmp_path, capsys, mutate, named):
        assert self._compile(ws, tmp_path, mutate) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compile", "verify"])
    @pytest.mark.parametrize("defect", ["nan-gamma", "negative-var", "zero-act-scale"])
    def test_bad_bnact_params_named(self, ws, tmp_path, capsys, command, defect):
        layer = "s2.b1.bn1"
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ws["ckpt"], ckpt)
        doc = json.loads((ckpt / "manifest.json").read_text())
        entry = doc["layers"][layer]
        blob = np.fromfile(ckpt / entry["file"], dtype="<f4")  # gamma, beta, mean, var
        if defect == "nan-gamma":
            blob[0] = np.nan
        elif defect == "negative-var":
            blob[3 * entry["channels"]] = -1.0
        else:
            entry["act_scale"] = 0.0
        blob.tofile(ckpt / entry["file"])
        (ckpt / "manifest.json").write_text(json.dumps(doc))
        assert main(_argv(ws, tmp_path, command, ckpt)) == 2
        assert layer in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compile", "verify"])
    @pytest.mark.parametrize(
        "defect,layer",
        [
            ("conv-shape", "s1.b1.conv1"),
            ("bnact-width", "s1.b1.bn1"),
            ("extra-layer", "s9.b9.conv1"),
            ("overflowing-shape", "s1.b1.conv1"),
            ("nan-head-weight", "head.conv"),
        ],
    )
    def test_layer_must_fit_architecture(self, ws, tmp_path, capsys, command, defect, layer):
        """Each entry's blob holds what the entry declares, but the layer does not fit."""
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ws["ckpt"], ckpt)
        doc = json.loads((ckpt / "manifest.json").read_text())
        layers = doc["layers"]
        if defect == "conv-shape":
            layers[layer]["shape"] = [32, 64, 3, 3]
            np.ones(32 * 64 * 3 * 3, "<f4").tofile(ckpt / layers[layer]["file"])
        elif defect == "bnact-width":
            layers[layer]["channels"] = 32
            np.ones(4 * 32, "<f4").tofile(ckpt / layers[layer]["file"])
        elif defect == "extra-layer":
            layers[layer] = dict(layers["s1.b1.conv1"])
        elif defect == "overflowing-shape":
            # 4 * 65536**4 bytes wraps to 0 in int64, the size of an empty blob
            layers[layer]["shape"] = [65536] * 4
            (ckpt / layers[layer]["file"]).write_bytes(b"")
        else:
            blob = np.fromfile(ckpt / layers[layer]["file"], dtype="<f4")
            blob[5] = np.nan
            blob.tofile(ckpt / layers[layer]["file"])
        (ckpt / "manifest.json").write_text(json.dumps(doc))
        assert main(_argv(ws, tmp_path, command, ckpt)) == 2
        assert layer in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--arch", "erns18"], ["--arch", "erns18x075", "--k", "4"]],
        ids=["other-arch", "other-k"],
    )
    def test_verify_against_another_graph(self, ws, tmp_path, capsys, flags):
        ckpt = tmp_path / "ckpt"
        assert main(["init-random", *flags, "--seed", "1", "--out", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(_argv(ws, tmp_path, "verify", ckpt)) == 2
        assert "graphs differ" in capsys.readouterr().err

    def test_verify_compares_graphs_before_reading_blobs(self, ws, tmp_path, capsys,
                                                         monkeypatch):
        ckpt = tmp_path / "ckpt"
        assert main(["init-random", "--arch", "erns18", "--seed", "1", "--out", str(ckpt)]) == 0
        capsys.readouterr()

        def no_oracle(*args, **kwargs):
            raise AssertionError("oracle built for a manifest of another graph")

        monkeypatch.setattr(ern.cli, "oracle_from_manifest", no_oracle)
        assert main(_argv(ws, tmp_path, "verify", ckpt)) == 2
        assert "graphs differ" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compile", "verify"])
    def test_huge_integer(self, ws, tmp_path, capsys, command):
        # more digits than Python's int() converts by default
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ws["ckpt"], ckpt)
        text = (ckpt / "manifest.json").read_text()
        assert '"k": 10' in text
        (ckpt / "manifest.json").write_text(text.replace('"k": 10', '"k": ' + "9" * 5000))
        assert main(_argv(ws, tmp_path, command, ckpt)) == 2
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compile", "verify"])
    @pytest.mark.parametrize("defect", ["deleted", "truncated"])
    def test_blob_changed_after_load(self, ws, tmp_path, capsys, monkeypatch, command, defect):
        """A conv blob, read on demand, that changed after the manifest loaded."""
        layer = "s1.b2.conv1"
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ws["ckpt"], ckpt)
        load_manifest = ern.cli.load_manifest

        def load_then_break(path):
            m = load_manifest(path)
            blob = ckpt / f"{layer}.bin"
            if defect == "deleted":
                blob.unlink()
            else:
                blob.write_bytes(blob.read_bytes()[:-4])
            return m

        monkeypatch.setattr(ern.cli, "load_manifest", load_then_break)
        assert main(_argv(ws, tmp_path, command, ckpt)) == 2
        assert layer in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compile", "verify"])
    @pytest.mark.parametrize("defect", ["truncated", "extended"])
    def test_blob_changed_between_reads(self, ws, tmp_path, capsys, monkeypatch, command, defect):
        """A conv blob that changed after its first block was read."""
        layer = "s4.b1.conv2"  # 384 x 384 x 3 x 3, read in many blocks
        ckpt = tmp_path / "ckpt"
        shutil.copytree(ws["ckpt"], ckpt)
        broken = break_after_first_read(monkeypatch, ckpt / f"{layer}.bin", defect)
        assert main(_argv(ws, tmp_path, command, ckpt)) == 2
        assert broken
        err = capsys.readouterr().err
        assert err.startswith(f"ern: layer '{layer}': ") and "Traceback" not in err
        assert not (tmp_path / "x.ern").exists()  # compile wrote nothing

    @pytest.mark.parametrize("k", [21846, 10**6])
    def test_oversized_k(self, ws, tmp_path, capsys, k):
        # k is bounded before any table is built
        assert self._compile(ws, tmp_path, lambda doc: {**doc, "k": k}) == 2
        assert "thermometer length" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["21846", "1000000"])
    def test_init_random_oversized_k(self, tmp_path, capsys, k):
        rc = main(["init-random", "--arch", "erns18x075", "--seed", "0", "--k", k,
                   "--out", str(tmp_path / "ckpt")])
        assert rc == 2
        assert "thermometer length" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_init_random_bad_shared_const(self, tmp_path, capsys, value):
        # refused with compile's own message, before any file is written
        out = tmp_path / "ckpt"
        rc = main(["init-random", "--arch", "erns18x075", "--seed", "0",
                   "--shared-const", value, "--out", str(out)])
        assert rc == 2
        assert "shared constant must be finite and > 0" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestUsage:
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "command,flag",
        [("verify", "--images"), ("verify", "--resolution"), ("bench", "--iters"),
         ("bench", "--resolution"), ("infer", "--crop-size"), ("infer", "--top"),
         ("stats", "--resolution"), ("init-random", "--k")],
    )
    def test_count_below_one_rejected(self, ws, tmp_path, capsys, command, flag, value):
        required = {
            "init-random": ["--arch", "erns18x075", "--seed", "0", "--out", str(tmp_path / "ckpt")],
            "verify": ["--model", str(ws["model"]), "--manifest", str(ws["ckpt"])],
            "bench": ["--model", str(ws["model"])],
            "infer": ["--model", str(ws["model"]), "--image", str(ws["ppm"]), "--ten-crop"],
            "stats": ["--arch", "erns18x075"],
        }
        assert main([command, *required[command], flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: must be at least 1" in captured.err

    @pytest.mark.parametrize("command", ["init-random", "verify", "bench"])
    def test_negative_seed_rejected(self, ws, tmp_path, capsys, command):
        required = {
            "init-random": ["--arch", "erns18x075", "--out", str(tmp_path / "ckpt")],
            "verify": ["--model", str(ws["model"]), "--manifest", str(ws["ckpt"])],
            "bench": ["--model", str(ws["model"])],
        }
        assert main([command, *required[command], "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed: must be at least 0" in captured.err

    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["infer", "--image", "x.ppm"]) == 1


class TestReleasePeaks:
    def test_a_row_for_every_call(self, ws):
        # tools/release_peaks.py wraps each ern.cli call by name; a renamed
        # call would drop its row, so every name must be called by compile or verify
        path = Path(__file__).resolve().parents[1] / "tools" / "release_peaks.py"
        spec = importlib.util.spec_from_file_location("release_peaks", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        peaks, codes = tool.run(str(ws["ckpt"]))
        assert codes == [0, 0]
        assert {row[0] for row in peaks.rows} == set(tool.CALLS)
