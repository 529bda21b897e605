"""Checkpoint compilation and the .ern model container.

A checkpoint is a directory: ``manifest.json`` naming the architecture
plus one raw little-endian float32 blob per layer (conv weights in
(OC, IC, kh, kw) C order; batch-norm blobs are gamma, beta, mean, var
concatenated).  Any training framework can emit one with a few lines.
Each BnAct's blob, epsilon and act_scale load into one
:class:`ern.quant.BnParams`, which checks them when it is built and is
what compilation and the float oracle read.

Compilation binarizes every conv (per-channel alpha = mean |w|, or the
shared constant c for convs feeding a residual add), folds each
batch-norm + quantizer pair into an integer threshold table using the
producing conv's scale, and bit-packs the signs.  The result is fully
integer-executable and serializes to a single .ern file:

    magic "ERN1" | u32 version | arch (u16 len + utf8) | u32 k |
    f64 c | u8 endian tag (1 = little) | u32 layer count |
    layer records | u32 CRC32 over everything before it

Conv records carry the ConvSpec fields, a const flag, the per-channel
scales, and the packed weight words.  The flag and some scales repeat
facts the reader already has: which convs are const-scaled is a fact of
the architecture's graph, their scales all equal c, and the head conv's
all equal alpha_out.  ``load`` checks each copy against its source.
BnAct records carry per-channel (t1, t2, t3) as signed 64-bit plus a
direction byte and a degenerate byte.  A degenerate channel (folded
slope exactly zero) stores its constant code in the t1 slot.  All
multi-byte values little-endian; identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import io
import json
import struct
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    ChecksumError,
    CompileError,
    ConfigError,
    DomainError,
    FormatError,
    ShapeError,
    TruncationError,
    VersionError,
)
from .graph import (
    ARCHITECTURES,
    BnAct,
    Conv,
    FinalConv,
    GraphDef,
    arch_config,
    build_model,
)
from .kernels import ConvSpec
from .quant import BnParams, ThresholdTable, binarize_weights, fuse_thresholds
from .tensor import LANES, PackedWeights, pack_weights, padded_channels

MAGIC = b"ERN1"
FORMAT_VERSION = 1
MANIFEST_FORMAT = "ern-checkpoint-v1"
LAYER_CONV = 1
LAYER_BNACT = 2
LAYER_FINAL = 3
_ENDIAN_LITTLE = 1
# one BnAct channel: t1, t2, t3, direction byte, degenerate byte
_BNACT_CHANNEL = np.dtype("<i8, <i8, <i8, u1, u1")


# --------------------------------------------------------------------------
# checkpoint manifests


@dataclass(eq=False)
class CheckpointManifest:
    """Float checkpoint: architecture id plus per-layer parameter arrays.

    :meth:`graph` is the one source of the graph that compilation and the
    float oracle build from.
    """

    arch: str
    k: int = 10
    shared_const: float | None = None
    convs: dict[str, np.ndarray] = field(default_factory=dict)
    bnacts: dict[str, BnParams] = field(default_factory=dict)

    def graph(self) -> GraphDef:
        return build_model(arch_config(self.arch), self.k)


def save_manifest(m: CheckpointManifest, path: str | Path) -> None:
    """Write manifest.json plus one float32 blob per layer."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    layers: dict[str, dict] = {}
    for name, w in m.convs.items():
        blob = np.ascontiguousarray(w, dtype="<f4")
        (root / f"{name}.bin").write_bytes(blob.tobytes())
        layers[name] = {"kind": "conv", "shape": list(w.shape), "file": f"{name}.bin"}
    for name, rec in m.bnacts.items():
        blob = np.concatenate(
            [
                np.asarray(rec.gamma, dtype="<f4"),
                np.asarray(rec.beta, dtype="<f4"),
                np.asarray(rec.mean, dtype="<f4"),
                np.asarray(rec.var, dtype="<f4"),
            ]
        )
        (root / f"{name}.bin").write_bytes(blob.tobytes())
        layers[name] = {
            "kind": "bnact",
            "channels": int(rec.gamma.shape[0]),
            "epsilon": rec.epsilon,
            "act_scale": rec.act_scale,
            "file": f"{name}.bin",
        }
    doc = {"format": MANIFEST_FORMAT, "arch": m.arch, "k": m.k, "layers": layers}
    if m.shared_const is not None:
        doc["shared_const"] = m.shared_const
    (root / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


_MISSING = object()
_KIND_NAMES = {
    int: "an integer", float: "a number", str: "a string", dict: "an object", list: "a list"
}


def _field(doc: dict, key: str, kind: type, where: str, default=_MISSING):
    """``doc[key]`` if it is a JSON value of ``kind``; else a ConfigError naming the field.

    ``float`` accepts any JSON number; no kind accepts ``true``/``false``.
    """
    if key not in doc:
        if default is _MISSING:
            raise ConfigError(f"{where}: field '{key}' is missing")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{where}: field '{key}' must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def load_manifest(path: str | Path) -> CheckpointManifest:
    """Read a checkpoint directory (or its manifest.json) back into memory.

    Every malformed field, and every batch-norm blob or scale that
    :class:`BnParams` rejects, raises a :class:`ConfigError` that names it.
    """
    root = Path(path)
    doc_path = root / "manifest.json" if root.is_dir() else root
    root = doc_path.parent
    try:
        doc = json.loads(doc_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read manifest {doc_path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"manifest {doc_path}: top level must be a JSON object")
    if doc.get("format") != MANIFEST_FORMAT:
        raise ConfigError(f"unsupported manifest format {doc.get('format')!r}")
    m = CheckpointManifest(
        arch=_field(doc, "arch", str, "manifest"), k=_field(doc, "k", int, "manifest", 10)
    )
    if doc.get("shared_const") is not None:
        m.shared_const = _field(doc, "shared_const", float, "manifest")
    for name, entry in _field(doc, "layers", dict, "manifest", {}).items():
        where = f"layer '{name}'"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: manifest entry must be a JSON object")
        kind = _field(entry, "kind", str, where)
        try:
            # a writable float32 array; compile and the oracle widen one layer at a time
            raw = np.fromfile(root / _field(entry, "file", str, where), dtype="<f4")
        except OSError as e:
            raise ConfigError(f"{where}: cannot read blob: {e}") from e
        if kind == "conv":
            shape = tuple(_field(entry, "shape", list, where))
            if len(shape) != 4 or not all(type(d) is int and d > 0 for d in shape):
                raise ConfigError(f"{where}: field 'shape' must be 4 positive integers")
            if raw.size != int(np.prod(shape)):
                raise ConfigError(f"{where}: blob holds {raw.size} floats, shape {shape}")
            m.convs[name] = raw.reshape(shape).astype(np.float32, copy=False)
        elif kind == "bnact":
            c = _field(entry, "channels", int, where)
            if raw.size != 4 * c:
                raise ConfigError(f"{where}: blob holds {raw.size} floats, expected {4 * c}")
            try:
                m.bnacts[name] = BnParams(
                    *(raw[i * c : (i + 1) * c] for i in range(4)),
                    epsilon=_field(entry, "epsilon", float, where, 1e-5),
                    act_scale=_field(entry, "act_scale", float, where, 1.0),
                )
            except DomainError as e:
                raise ConfigError(f"{where}: {e}") from None
        else:
            raise ConfigError(f"{where}: unknown kind {kind!r}")
    return m


def gen_random_checkpoint(
    arch: str, seed: int, k: int = 10, shared_const: float = 1.0
) -> CheckpointManifest:
    """Seeded random float checkpoint with plausible batch-norm statistics.

    Statistics are scaled to the producing conv's fan-in so folded
    thresholds mostly land inside the reachable accumulator range; a few
    gammas are flipped negative to exercise descending threshold tables.
    """
    g = build_model(arch_config(arch), k)
    rng = np.random.default_rng(seed)
    m = CheckpointManifest(arch=arch, k=k, shared_const=shared_const)
    for node in g.convs:
        s = node.spec
        m.convs[node.name] = rng.standard_normal((s.out_ch, s.in_ch, s.kh, s.kw)).astype(
            np.float32
        )
    for bn in g.bnacts:
        c = bn.channels
        sigma_ref = 1.5 * np.sqrt(max(g.edges[bn.src].bound / 3, 1))
        gamma = rng.normal(1.0, 0.3, c)
        gamma[rng.random(c) < 0.05] *= -1.0
        m.bnacts[bn.name] = BnParams(
            gamma=gamma.astype(np.float32),
            beta=rng.normal(0.0, 1.0, c).astype(np.float32),
            mean=rng.normal(0.0, 0.3 * sigma_ref, c).astype(np.float32),
            var=(sigma_ref**2 * rng.uniform(0.25, 4.0, c)).astype(np.float32),
            epsilon=1e-5,
            act_scale=round(rng.uniform(0.5, 2.0), 4),
        )
    return m


# --------------------------------------------------------------------------
# compilation


@dataclass(eq=False)
class CompiledModel:
    graph: GraphDef
    weights: dict[str, PackedWeights]
    thresholds: dict[str, ThresholdTable]
    alpha_out: float
    arch: str
    k: int
    shared_const: float


def compile_checkpoint(
    manifest: CheckpointManifest, shared_const: float | None = None
) -> CompiledModel:
    """Fold a float checkpoint into an integer-executable model.

    The graph is ``manifest.graph()``.  Scale resolution per conv: convs
    whose output edge is const-scaled (those feeding residual adds) take
    the shared constant c; the head conv takes one alpha_out = mean |w|;
    others take per-channel alpha = mean |w|, with all-zero filters
    substituting alpha = 1 under a warning.  Each BnAct folds against
    whichever scale its producing edge carries, clamped to that edge's
    accumulator bound.  Only named architectures serialize.
    """
    g = manifest.graph()
    c = shared_const if shared_const is not None else manifest.shared_const
    c = 1.0 if c is None else float(c)
    if not (np.isfinite(c) and c > 0):
        raise ConfigError(f"shared constant must be finite and > 0, got {c}")

    expected = {n.name for n in g.convs} | {n.name for n in g.bnacts}
    extra = (set(manifest.convs) | set(manifest.bnacts)) - expected
    if extra:
        raise CompileError(sorted(extra)[0], "not a layer of this architecture")

    weights: dict[str, PackedWeights] = {}
    alpha_out = 1.0
    for node in g.convs:
        w = manifest.convs.get(node.name)
        if w is None:
            raise CompileError(node.name, "missing conv weights")
        s = node.spec
        if tuple(w.shape) != (s.out_ch, s.in_ch, s.kh, s.kw):
            raise CompileError(
                node.name, f"weights shaped {w.shape}, expected {(s.out_ch, s.in_ch, s.kh, s.kw)}"
            )
        w = np.asarray(w, dtype=np.float64)
        try:
            signs, alpha = binarize_weights(w)
        except DomainError:
            raise CompileError(node.name, "weights contain non-finite values") from None
        zero = alpha == 0.0
        if zero.any():
            warnings.warn(
                f"layer '{node.name}': {int(zero.sum())} all-zero filter(s), using alpha = 1",
                stacklevel=2,
            )
            alpha = np.where(zero, 1.0, alpha)
        if isinstance(node, FinalConv):
            alpha_out = float(np.mean(np.abs(w))) or 1.0
            alpha = np.full(s.out_ch, alpha_out)
        elif g.edges[node.dst].const_scaled:
            alpha = np.full(s.out_ch, c)
        weights[node.name] = pack_weights(signs, alpha)

    thresholds: dict[str, ThresholdTable] = {}
    for bn in g.bnacts:
        rec = manifest.bnacts.get(bn.name)
        if rec is None:
            raise CompileError(bn.name, "missing batch-norm parameters")
        if rec.channels != bn.channels:
            raise CompileError(bn.name, f"{rec.channels} channels, expected {bn.channels}")
        info = g.edges[bn.src]
        alpha = np.full(bn.channels, c) if info.const_scaled else weights[info.producer].alpha
        thresholds[bn.name] = fuse_thresholds(alpha, rec, acc_bound=info.bound)

    return CompiledModel(
        graph=g,
        weights=weights,
        thresholds=thresholds,
        alpha_out=alpha_out,
        arch=manifest.arch,
        k=manifest.k,
        shared_const=c,
    )


# --------------------------------------------------------------------------
# .ern serialization


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def serialize(model: CompiledModel) -> bytes:
    """Encode a compiled model as .ern bytes (see module docstring)."""
    if model.arch not in ARCHITECTURES:
        raise ConfigError(f"only named architectures serialize, got '{model.arch}'")
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack("<I", FORMAT_VERSION))
    out.write(_pack_str(model.arch))
    out.write(struct.pack("<Id", model.k, model.shared_const))
    out.write(struct.pack("<B", _ENDIAN_LITTLE))
    convs = model.graph.convs
    bnacts = model.graph.bnacts
    out.write(struct.pack("<I", len(convs) + len(bnacts)))
    for node in model.graph.nodes:
        if isinstance(node, (Conv, FinalConv)):
            w = model.weights[node.name]
            s = node.spec
            kind = LAYER_FINAL if isinstance(node, FinalConv) else LAYER_CONV
            out.write(struct.pack("<B", kind))
            out.write(_pack_str(node.name))
            out.write(
                struct.pack(
                    "<HHBBBBBBB",
                    s.out_ch,
                    s.in_ch,
                    s.kh,
                    s.kw,
                    s.stride[0],
                    s.stride[1],
                    s.padding[0],
                    s.padding[1],
                    1 if model.graph.edges[node.dst].const_scaled else 0,
                )
            )
            alpha = np.ascontiguousarray(w.alpha, dtype="<f8")
            out.write(struct.pack("<I", alpha.size))
            out.write(alpha.tobytes())
            words = np.ascontiguousarray(w.bits, dtype="<u8")
            out.write(struct.pack("<I", words.size))
            out.write(words.tobytes())
        elif isinstance(node, BnAct):
            tbl = model.thresholds[node.name]
            out.write(struct.pack("<B", LAYER_BNACT))
            out.write(_pack_str(node.name))
            out.write(struct.pack("<H", node.channels))
            t = np.where(tbl.degenerate[:, None], 0, tbl.t)
            t[:, 0] = np.where(tbl.degenerate, tbl.const_code, t[:, 0])
            rec = np.empty(node.channels, dtype=_BNACT_CHANNEL)
            rec["f0"], rec["f1"], rec["f2"] = t.T
            rec["f3"] = tbl.ascending
            rec["f4"] = tbl.degenerate
            out.write(rec.tobytes())
    body = out.getvalue()
    return body + struct.pack("<I", zlib.crc32(body))


class _Reader:
    def __init__(self, data: bytes, limit: int):
        self.data = data
        self.pos = 0
        self.limit = limit

    def take(self, n: int) -> bytes:
        if self.pos + n > self.limit:
            raise TruncationError(
                f"file ends at byte {self.limit}, needed {self.pos + n}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> bytes:
        """A length-prefixed string, still encoded; see :func:`_decode`."""
        (n,) = self.unpack("<H")
        return self.take(n)


def _decode(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"string is not valid UTF-8: {e}") from None


def load(data: bytes) -> CompiledModel:
    """Decode .ern bytes, verifying magic, version, length, CRC, then structure.

    The record layout is walked first, reading only the length and count
    fields, to tell a file that ends early (:class:`TruncationError`) from
    one whose bytes changed; the CRC is then checked before any other
    field is interpreted, so a corrupt body raises :class:`ChecksumError`.
    A corrupted length or count can still read as a truncation, because
    it is walked before the CRC.  Every other defect of a file with a
    valid CRC raises a :class:`FormatError`, including any record that
    disagrees with the architecture (shape, record kind, const flag) and
    any scale the file repeats that disagrees with c: c and every conv
    scale must be finite and > 0, a const-scaled conv's scales must all
    equal c, and the head conv's must all equal one alpha_out.
    """
    if len(data) < 4:
        raise TruncationError(f"{len(data)} bytes is too short for a model file")
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < 8:
        raise TruncationError("file ends inside the version field")
    (version,) = struct.unpack("<I", data[4:8])
    if version != FORMAT_VERSION:
        raise VersionError(f"format version {version}, this reader handles {FORMAT_VERSION}")
    if len(data) < 13:
        raise TruncationError("file ends inside the header")

    r = _Reader(data, limit=len(data) - 4)
    r.pos = 8
    arch_raw = r.string()
    k, shared_const = r.unpack("<Id")
    (endian,) = r.unpack("<B")
    (layer_count,) = r.unpack("<I")
    records = []
    for _ in range(layer_count):
        (kind,) = r.unpack("<B")
        name = r.string()
        if kind in (LAYER_CONV, LAYER_FINAL):
            geometry = r.unpack("<HHBBBBBBB")
            alpha = r.take(8 * r.unpack("<I")[0])
            words = r.take(8 * r.unpack("<I")[0])
            records.append((kind, name, geometry, alpha, words))
        elif kind == LAYER_BNACT:
            (channels,) = r.unpack("<H")
            records.append((kind, name, channels, r.take(_BNACT_CHANNEL.itemsize * channels)))
        else:
            records.append((kind, name))  # unknown layout: reported after the CRC
            break
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ChecksumError("body CRC32 does not match the stored checksum")

    if endian != _ENDIAN_LITTLE:
        raise FormatError(f"unsupported endianness tag {endian}")
    if not (np.isfinite(shared_const) and shared_const > 0):
        raise FormatError(f"shared constant {shared_const} is not finite and > 0")
    if not 1 <= 3 * k <= 0xFFFF:
        raise FormatError(f"thermometer length {k} does not fit the stem conv record")
    arch = _decode(arch_raw)
    g = build_model(arch_config(arch), k)
    by_name = {n.name: n for n in g.nodes}

    weights: dict[str, PackedWeights] = {}
    thresholds: dict[str, ThresholdTable] = {}
    alpha_out = 1.0
    for kind, name, *fields in records:
        name = _decode(name)
        node = by_name.get(name)
        if node is None:
            raise FormatError(f"layer '{name}' is not part of architecture '{arch}'")
        if name in weights or name in thresholds:
            raise FormatError(f"layer '{name}' is stored twice")
        if kind in (LAYER_CONV, LAYER_FINAL):
            (oc, ic, kh, kw, sh, sw, ph, pw, const_flag), alpha, words = fields
            spec = getattr(node, "spec", None)
            if spec != ConvSpec(ic, oc, kh, kw, (sh, sw), (ph, pw)):
                raise FormatError(f"layer '{name}': stored shape disagrees with architecture")
            if (kind == LAYER_FINAL) != isinstance(node, FinalConv):
                raise FormatError(f"layer '{name}': record kind {kind} disagrees with architecture")
            if const_flag != g.edges[node.dst].const_scaled:
                raise FormatError(f"layer '{name}': const flag {const_flag} disagrees with graph")
            alpha = np.frombuffer(alpha, dtype="<f8").astype(np.float64)
            if alpha.shape != (oc,) or not (np.isfinite(alpha) & (alpha > 0)).all():
                raise FormatError(f"layer '{name}': scales must be {oc} finite values > 0")
            if const_flag and (alpha != shared_const).any():
                raise FormatError(f"layer '{name}': const-scaled conv scales differ from c")
            if kind == LAYER_FINAL and (alpha != alpha[0]).any():
                raise FormatError(f"layer '{name}': head conv scales differ from one another")
            shape = (oc, padded_channels(ic) // LANES, kh, kw)
            n_words = len(words) // 8
            if n_words != int(np.prod(shape)):
                raise FormatError(f"layer '{name}': {n_words} weight words, expected {np.prod(shape)}")
            bits = np.frombuffer(words, dtype="<u8").astype(np.uint64).reshape(shape)
            weights[name] = PackedWeights(bits=bits, alpha=alpha, in_channels=ic)
            if kind == LAYER_FINAL:
                alpha_out = float(alpha[0])
        elif kind == LAYER_BNACT:
            channels, raw = fields
            if getattr(node, "channels", None) != channels:
                raise FormatError(f"layer '{name}': stored width disagrees with architecture")
            raw = np.frombuffer(raw, dtype=_BNACT_CHANNEL)
            t = np.stack([raw["f0"], raw["f1"], raw["f2"]], axis=1).astype(np.int64)
            degenerate = raw["f4"].astype(bool)
            try:
                thresholds[name] = ThresholdTable(
                    t=np.where(degenerate[:, None], 0, t),
                    ascending=raw["f3"].astype(bool),
                    degenerate=degenerate,
                    const_code=np.where(degenerate, t[:, 0], 0),
                )
            except (DomainError, ShapeError) as e:
                raise FormatError(f"layer '{name}': {e}") from None
        else:
            raise FormatError(f"unknown layer record kind {kind}")
    if r.pos != len(data) - 4:
        raise FormatError(f"{len(data) - 4 - r.pos} unexpected trailing bytes before checksum")

    missing = ({n.name for n in g.convs} | {n.name for n in g.bnacts}) - (
        set(weights) | set(thresholds)
    )
    if missing:
        raise FormatError(f"layer '{sorted(missing)[0]}' missing from file")
    return CompiledModel(
        graph=g,
        weights=weights,
        thresholds=thresholds,
        alpha_out=alpha_out,
        arch=arch,
        k=k,
        shared_const=shared_const,
    )


def models_equivalent(a: CompiledModel, b: CompiledModel) -> bool:
    """Bit-exact equality of weights, thresholds, and metadata."""
    if (a.arch, a.k) != (b.arch, b.k):
        return False
    if a.shared_const != b.shared_const or a.alpha_out != b.alpha_out:
        return False
    if set(a.weights) != set(b.weights) or set(a.thresholds) != set(b.thresholds):
        return False
    for name, wa in a.weights.items():
        wb = b.weights[name]
        if wa.in_channels != wb.in_channels:
            return False
        if not (np.array_equal(wa.bits, wb.bits) and np.array_equal(wa.alpha, wb.alpha)):
            return False
    for name, ta in a.thresholds.items():
        tb = b.thresholds[name]
        if not (
            np.array_equal(ta.t, tb.t)
            and np.array_equal(ta.ascending, tb.ascending)
            and np.array_equal(ta.degenerate, tb.degenerate)
            and np.array_equal(ta.const_code, tb.const_code)
        ):
            return False
    return True
