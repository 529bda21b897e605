import dataclasses
import json
import shutil
import struct
import zlib

import numpy as np
import pytest

from ern.cli import main
from ern.compiler import load, serialize
from ern.ppm import write_ppm

from conftest import rewrite_threshold_row


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

    def test_missing_image(self, ws):
        assert main(["infer", "--model", str(ws["model"]), "--image", "/nope.ppm"]) == 2

    def test_corrupt_model(self, ws):
        bad = ws["root"] / "bad.ern"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["infer", "--model", str(bad), "--image", str(ws["ppm"])]) == 2

    def test_invalid_utf8_layer_name(self, ws, capsys):
        body = bytearray(ws["model"].read_bytes()[:-4])
        body[body.index(b"stem.conv1")] = 0xFF
        bad = ws["root"] / "badname.ern"
        bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        assert main(["infer", "--model", str(bad), "--image", str(ws["ppm"])]) == 2
        assert "UTF-8" in capsys.readouterr().err


    @pytest.mark.parametrize("t1,degenerate", [(10**6, None), (4, 1)])
    def test_bad_threshold_table(self, ws, capsys, t1, degenerate):
        bad = ws["root"] / "badtable.ern"
        blob = rewrite_threshold_row(ws["model"].read_bytes(), "s2.b1.bn0", t1, degenerate)
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

    def test_tampered_model_fails(self, ws, capsys):
        model = load(ws["model"].read_bytes())
        name = "s2.b1.bn1"
        tbl = model.thresholds[name]
        tampered = dataclasses.replace(
            model,
            thresholds={**model.thresholds, name: dataclasses.replace(tbl, t=tbl.t + 25)},
        )
        bad = ws["root"] / "tampered.ern"
        bad.write_bytes(serialize(tampered))
        rc = main(["verify", "--model", str(bad), "--manifest", str(ws["ckpt"]),
                   "--images", "1", "--resolution", "48"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert name in out


class TestBench:
    def test_both_paths_and_agreement(self, ws, capsys):
        rc = main(["bench", "--model", str(ws["model"]), "--iters", "1",
                   "--resolution", "48"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "popcount" in out and "naive" in out
        assert "identical logits" in out

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
        ],
        ids=["top-level-list", "layers-list", "missing-arch", "layer-without-kind", "k-string",
             "shared-const-string", "channels-string", "act-scale-null"],
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
        argv = {
            "compile": ["compile", "--manifest", str(ckpt), "--out", str(tmp_path / "x.ern")],
            "verify": ["verify", "--model", str(ws["model"]), "--manifest", str(ckpt),
                       "--images", "1", "--resolution", "32"],
        }[command]
        assert main(argv) == 2
        assert layer in capsys.readouterr().err

    @pytest.mark.parametrize("k", [21846, 10**6])
    def test_oversized_k(self, ws, tmp_path, capsys, k):
        # 3k must fit the stem record's u16 in_ch field
        assert self._compile(ws, tmp_path, lambda doc: {**doc, "k": k}) == 2
        assert "thermometer length" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["21846", "1000000"])
    def test_init_random_oversized_k(self, tmp_path, capsys, k):
        rc = main(["init-random", "--arch", "erns18x075", "--seed", "0", "--k", k,
                   "--out", str(tmp_path / "ckpt")])
        assert rc == 2
        assert "thermometer length" in capsys.readouterr().err


class TestUsage:
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "command,flag",
        [("verify", "--images"), ("verify", "--resolution"), ("bench", "--iters"),
         ("bench", "--resolution"), ("infer", "--crop-size"), ("infer", "--top"),
         ("stats", "--resolution")],
    )
    def test_count_below_one_rejected(self, ws, capsys, command, flag, value):
        required = {
            "verify": ["--model", str(ws["model"]), "--manifest", str(ws["ckpt"])],
            "bench": ["--model", str(ws["model"])],
            "infer": ["--model", str(ws["model"]), "--image", str(ws["ppm"]), "--ten-crop"],
            "stats": ["--arch", "erns18x075"],
        }
        assert main([command, *required[command], flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: must be at least 1" in captured.err

    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["infer", "--image", "x.ppm"]) == 1
