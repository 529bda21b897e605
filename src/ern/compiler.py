"""Checkpoint compilation and the .ern model container.

A checkpoint is a directory: ``manifest.json`` naming the architecture
plus one raw little-endian float32 blob per layer (conv weights in
(OC, IC, kh, kw) C order; batch-norm blobs are gamma, beta, mean, var
concatenated).  Any training framework can emit one with a few lines.
Each BnAct's blob, epsilon and act_scale load into one
:class:`ern.quant.BnParams`, which checks them when it is built and is
what compilation and the float oracle read.  Conv blobs, the bulk of a
checkpoint, are only size-checked on load and read from disk one layer
per lookup, so compilation and the oracle hold one layer's floats at a
time.  :meth:`CheckpointManifest.checked_graph` and
:meth:`CheckpointManifest.conv_weights` are the one check of a
checkpoint against its architecture; compilation and the oracle both
start from them, so they refuse the same checkpoints with the same
:class:`CompileError`.

Compilation binarizes every conv, scaling it as its output edge's
``scale`` in the graph says: ``"alpha"``, per-channel alpha = mean |w|;
``"c"``, the shared constant c (the convs feeding a residual add);
``"alpha_out"``, one alpha_out = mean |w| (the head conv).  It folds each
batch-norm + quantizer pair into an integer threshold table using the
producing edge's scale, and bit-packs the signs.  The result is fully
integer-executable and serializes to a single .ern file, format
version 3:

    prefix   magic "ERN1" | u32 version | u32 body length |
             u32 CRC32 of those 12 bytes
    body     45-byte header: u8 block kind (0 conv, 1 bottleneck) |
             4 x u8 stage counts | 4 x u32 stage widths | u32 classes |
             u32 k | f64 c | f64 alpha_out;
             then one record per conv and BnAct, in ``graph.nodes`` order
    trailer  u32 CRC32 of the body

The header's layout is the graph's :class:`ern.graph.ArchConfig`, which
fixes the graph and so every record's size; the records carry no name,
kind, geometry or count.  A conv record is its
packed u64 weight words, preceded by its f64 per-channel scales only if
its edge's scale is ``"alpha"``: the scales of a ``"c"`` or
``"alpha_out"`` conv are c or alpha_out, each written once at the start
of the body.  A BnAct record is ``<i4 t1, t2, t3, u1 flags>`` per
channel, flag bit 0 ascending and bit 1 degenerate, never both.  A degenerate channel
(folded slope exactly zero) stores its constant code in t1 and zeros in
t2 and t3.
Every threshold lies within its edge's static bound + 1 (42,240 at most
on a stock model), which int32 holds.  All multi-byte values are
little-endian; identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
import zlib
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace
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
    BLOCKS,
    ArchConfig,
    BnAct,
    Conv,
    GraphDef,
    arch_config,
    build_model,
)
from .quant import BnParams, ThresholdTable, binarize_weights, fuse_thresholds
from .tensor import LANES, PackedWeights, pack_weights, padded_channels

MAGIC = b"ERN1"
FORMAT_VERSION = 3
MANIFEST_FORMAT = "ern-checkpoint-v1"
_PREFIX = 16  # magic, version, body length, CRC32 of those 12 bytes
# block kind, 4 stage counts, 4 stage widths, classes, k, c, alpha_out
_HEADER = struct.Struct("<B4B4IIIdd")
# one BnAct channel: t1, t2, t3, then flag bits
_BNACT_CHANNEL = np.dtype([("t", "<i4", 3), ("flags", "u1")])
_ASCENDING = 1
_DEGENERATE = 2


# --------------------------------------------------------------------------
# checkpoint manifests


@dataclass(eq=False)
class CheckpointManifest:
    """Float checkpoint: architecture plus per-layer parameter arrays.

    :meth:`graph` is the one source of the graph, and :meth:`checked_graph`
    and :meth:`conv_weights` the one check of the held layers against it,
    for compilation and the float oracle alike.
    """

    arch: ArchConfig
    shared_const: float | None = None
    convs: Mapping[str, np.ndarray] = field(default_factory=dict)
    bnacts: dict[str, BnParams] = field(default_factory=dict)

    def graph(self) -> GraphDef:
        return build_model(self.arch)

    def checked_graph(self, shared_const: float | None = None) -> tuple[GraphDef, float]:
        """The graph and the shared constant c, once the held layers fit the graph.

        c is ``shared_const`` if given, else the manifest's, else 1.0, and
        must be finite and > 0 (:class:`ConfigError`).  A held layer that
        is not a node of the graph, and a BnAct whose parameters are
        missing or of the wrong width, raise :class:`CompileError` naming
        the layer.  Conv weights are checked as they are read, by
        :meth:`conv_weights`.
        """
        g = self.graph()
        c = next(v for v in (shared_const, self.shared_const, 1.0) if v is not None)
        if not (np.isfinite(c) and c > 0):
            raise ConfigError(f"shared constant must be finite and > 0, got {c}")
        extra = (set(self.convs) | set(self.bnacts)) - {n.name for n in g.convs + g.bnacts}
        if extra:
            raise CompileError(sorted(extra)[0], "not a layer of this architecture")
        for bn in g.bnacts:
            rec = self.bnacts.get(bn.name)
            if rec is None:
                raise CompileError(bn.name, "missing batch-norm parameters")
            if rec.channels != bn.channels:
                raise CompileError(bn.name, f"{rec.channels} channels, expected {bn.channels}")
        return g, float(c)

    def conv_weights(self, node: Conv) -> np.ndarray:
        """One conv's float weights, read once from ``convs``.

        Raises :class:`CompileError` naming the layer if they are missing,
        not shaped as ``node.spec`` (OC, IC, kh, kw), or not all finite.
        """
        w = self.convs.get(node.name)
        if w is None:
            raise CompileError(node.name, "missing conv weights")
        s = node.spec
        if w.shape != (s.out_ch, s.in_ch, s.kh, s.kw):
            raise CompileError(
                node.name, f"weights shaped {w.shape}, expected {(s.out_ch, s.in_ch, s.kh, s.kw)}"
            )
        if not np.isfinite(w).all():
            raise CompileError(node.name, "weights contain non-finite values")
        return w


def save_manifest(m: CheckpointManifest, path: str | Path) -> None:
    """Write manifest.json plus one float32 blob per layer.

    The manifest names its architecture: the preset of ``ARCHITECTURES``
    whose layout is ``m.arch``'s up to k.  Any other layout raises
    :class:`ConfigError` before anything is written.
    """
    preset = next((n for n, a in ARCHITECTURES.items() if replace(a, k=m.arch.k) == m.arch), None)
    if preset is None:
        raise ConfigError(f"a manifest names a preset architecture; no preset has {m.arch}")
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
    doc = {"format": MANIFEST_FORMAT, "arch": preset, "k": m.arch.k, "layers": layers}
    if m.shared_const is not None:
        doc["shared_const"] = m.shared_const
    (root / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


_MISSING = object()
_KIND_NAMES = {
    int: "an integer", float: "a number", str: "a string", dict: "an object", list: "a list"
}


def _field(doc: dict, key: str, kind: type, where: str, default=_MISSING):
    """``doc[key]`` if it is a JSON value of ``kind``; else a ConfigError naming the field.

    ``float`` accepts any JSON number a float holds and returns it as a
    float; no kind accepts ``true``/``false``.
    """
    if key not in doc:
        if default is _MISSING:
            raise ConfigError(f"{where}: field '{key}' is missing")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{where}: field '{key}' must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:  # an integer past 1.8e308
            raise ConfigError(f"{where}: field '{key}' is too large for a float") from None
    return value


def _check_conv_blob(where: str, nbytes: int, shape: tuple[int, ...]) -> None:
    need = 4 * math.prod(shape)  # np.prod wraps in int64
    if nbytes != need:
        raise ConfigError(f"{where}: blob holds {nbytes} bytes, shape {shape} needs {need}")


class _ConvBlobs(Mapping[str, np.ndarray]):
    """A checkpoint's conv weights, read from disk on every lookup.

    Each lookup reads that one blob, checks its size again and returns a
    fresh writable float32 array; nothing is cached, so a walk over the
    layers holds one layer's floats at a time.
    """

    def __init__(self, entries: dict[str, tuple[Path, tuple[int, ...]]]):
        self._entries = entries  # layer name -> (blob path, shape)

    def __getitem__(self, name: str) -> np.ndarray:
        blob, shape = self._entries[name]
        where = f"layer '{name}'"
        try:
            raw = np.fromfile(blob, dtype="<f4")
        except OSError as e:
            raise ConfigError(f"{where}: cannot read blob: {e}") from e
        _check_conv_blob(where, raw.nbytes, shape)
        return raw.reshape(shape).astype(np.float32, copy=False)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def load_manifest(path: str | Path) -> CheckpointManifest:
    """Read a checkpoint directory (or its manifest.json).

    Every malformed field, every conv blob of the wrong size, and every
    batch-norm blob or scale that :class:`BnParams` rejects, raises a
    :class:`ConfigError` that names it.  Batch-norm blobs are read here;
    conv blobs are only sized here (``stat``) and read by each lookup in
    ``convs``, which re-checks the size and raises the same error.
    """
    root = Path(path)
    doc_path = root / "manifest.json" if root.is_dir() else root
    root = doc_path.parent
    try:
        doc = json.loads(doc_path.read_text())
    except (OSError, ValueError) as e:  # ValueError: bad JSON, UTF-8 or a huge integer
        raise ConfigError(f"cannot read manifest {doc_path}: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"manifest {doc_path}: top level must be a JSON object")
    if doc.get("format") != MANIFEST_FORMAT:
        raise ConfigError(f"unsupported manifest format {doc.get('format')!r}")
    arch = arch_config(_field(doc, "arch", str, "manifest"))
    m = CheckpointManifest(arch=replace(arch, k=_field(doc, "k", int, "manifest", 10)))
    if doc.get("shared_const") is not None:
        m.shared_const = _field(doc, "shared_const", float, "manifest")
    convs: dict[str, tuple[Path, tuple[int, ...]]] = {}
    for name, entry in _field(doc, "layers", dict, "manifest", {}).items():
        where = f"layer '{name}'"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: manifest entry must be a JSON object")
        kind = _field(entry, "kind", str, where)
        blob = root / _field(entry, "file", str, where)
        try:  # conv blobs are only sized here; each ``convs`` lookup reads one
            if kind == "conv":
                nbytes = blob.stat().st_size
            else:
                raw = np.fromfile(blob, dtype="<f4")
        except OSError as e:
            raise ConfigError(f"{where}: cannot read blob: {e}") from e
        if kind == "conv":
            shape = tuple(_field(entry, "shape", list, where))
            if len(shape) != 4 or not all(type(d) is int and d > 0 for d in shape):
                raise ConfigError(f"{where}: field 'shape' must be 4 positive integers")
            _check_conv_blob(where, nbytes, shape)
            convs[name] = (blob, shape)
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
    m.convs = _ConvBlobs(convs)
    return m


def gen_random_checkpoint(
    arch: ArchConfig | str, seed: int, shared_const: float = 1.0
) -> CheckpointManifest:
    """Seeded random float checkpoint with plausible batch-norm statistics.

    ``arch`` is an :class:`ArchConfig` or a preset name.  Statistics are
    scaled to the producing conv's fan-in so folded thresholds mostly
    land inside the reachable accumulator range; a few gammas are flipped
    negative to exercise descending threshold tables.
    """
    m = CheckpointManifest(
        arch=arch_config(arch) if isinstance(arch, str) else arch, shared_const=shared_const
    )
    g = m.graph()
    rng = np.random.default_rng(seed)
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
    shared_const: float


def compile_checkpoint(
    manifest: CheckpointManifest, shared_const: float | None = None
) -> CompiledModel:
    """Fold a float checkpoint into an integer-executable model.

    The graph and c come from ``manifest.checked_graph(shared_const)``
    and each conv's weights from ``manifest.conv_weights``, the checks
    ``oracle_from_manifest`` shares.  Each conv takes the scale its
    output edge's ``scale`` names: ``"c"``, the shared constant c;
    ``"alpha_out"``, one alpha_out = mean |w|; ``"alpha"``, per-channel
    alpha = mean |w|, with all-zero filters substituting alpha = 1 under
    a warning.  Each BnAct folds against whichever scale its producing
    edge carries, clamped to that edge's accumulator bound; a fold whose
    reach over that bound is not finite raises :class:`CompileError`
    naming the BnAct.

    Each conv's floats are dropped once its signs are packed; with a
    loaded manifest that reads one blob per lookup, compilation holds one
    conv's floats at a time.
    """
    g, c = manifest.checked_graph(shared_const)
    weights: dict[str, PackedWeights] = {}
    alpha_out = 1.0
    for node in g.convs:
        w = manifest.conv_weights(node)
        signs, alpha = binarize_weights(w)
        zero = alpha == 0.0
        if zero.any():
            warnings.warn(
                f"layer '{node.name}': {int(zero.sum())} all-zero filter(s), using alpha = 1",
                stacklevel=2,
            )
            alpha = np.where(zero, 1.0, alpha)
        scale = g.edges[node.dst].scale
        if scale == "alpha_out":
            # widened first: a float32 mean over the whole head rounds differently
            wide = w.astype(np.float64)
            alpha_out = float(np.abs(wide, out=wide).mean()) or 1.0
            alpha = np.full(node.spec.out_ch, alpha_out)
        elif scale == "c":
            alpha = np.full(node.spec.out_ch, c)
        weights[node.name] = pack_weights(signs, alpha)

    thresholds: dict[str, ThresholdTable] = {}
    for bn in g.bnacts:
        info = g.edges[bn.src]
        alpha = np.full(bn.channels, c) if info.scale == "c" else weights[info.producer].alpha
        try:
            thresholds[bn.name] = fuse_thresholds(alpha, manifest.bnacts[bn.name], info.bound)
        except DomainError as e:
            raise CompileError(bn.name, str(e)) from None

    return CompiledModel(
        graph=g, weights=weights, thresholds=thresholds, alpha_out=alpha_out, shared_const=c
    )


# --------------------------------------------------------------------------
# .ern serialization


def _check_bound(t: np.ndarray, bound: int, name: str, error: type[Exception]) -> None:
    if np.abs(t).max(initial=0) > bound + 1:
        raise error(f"layer '{name}': a threshold exceeds the accumulator bound {bound} + 1")


def serialize(model: CompiledModel) -> bytes:
    """Encode a compiled model as .ern bytes (see module docstring).

    The header stores ``graph.arch``, and one walk over ``graph.nodes``
    writes each conv's and BnAct's record.  A threshold table with |t| >
    its edge's bound + 1 raises :class:`DomainError`, and a graph with no
    ``arch`` (wired by hand), which ``load`` could not rebuild, raises
    :class:`ConfigError`.
    """
    g = model.graph
    a = g.arch
    if a is None:
        raise ConfigError("only a graph built from an ArchConfig serializes")
    parts = [
        _HEADER.pack(
            BLOCKS.index(a.block), *a.counts, *a.channels, a.classes, a.k,
            model.shared_const, model.alpha_out,
        )
    ]
    for node in g.nodes:
        if isinstance(node, Conv):
            w = model.weights[node.name]
            if g.edges[node.dst].scale == "alpha":
                parts.append(np.ascontiguousarray(w.alpha, dtype="<f8").tobytes())
            parts.append(np.ascontiguousarray(w.bits, dtype="<u8").tobytes())
        elif isinstance(node, BnAct):
            tbl = model.thresholds[node.name]
            t = np.where(tbl.degenerate[:, None], 0, tbl.t)
            t[:, 0] = np.where(tbl.degenerate, tbl.const_code, t[:, 0])
            _check_bound(t, g.edges[node.src].bound, node.name, DomainError)
            rec = np.empty(node.channels, dtype=_BNACT_CHANNEL)
            rec["t"] = t
            rec["flags"] = tbl.ascending * _ASCENDING | tbl.degenerate * _DEGENERATE
            parts.append(rec.tobytes())
    body = b"".join(parts)
    prefix = MAGIC + struct.pack("<II", FORMAT_VERSION, len(body))
    return prefix + struct.pack("<I", zlib.crc32(prefix)) + body + struct.pack("<I", zlib.crc32(body))


class _Reader:
    """Reads a body whose CRC matched; a body too short for its graph is a FormatError."""

    def __init__(self, body: memoryview):
        self.body = body
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.body):
            raise FormatError(f"body of {len(self.body)} bytes is too short for its records")
        self.pos += n
        return self.body[self.pos - n : self.pos]

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def array(self, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(dtype.itemsize * count), dtype=dtype)


def load(data: bytes) -> CompiledModel:
    """Decode .ern bytes in one pass over the graph (see module docstring).

    Magic, version, the prefix CRC, the file length the prefix declares
    and the body CRC are all checked before any body field is read, so a
    file that ends early raises :class:`TruncationError` and one whose
    bytes changed raises :class:`ChecksumError` (or :class:`BadMagicError`
    or :class:`VersionError` for those fields).  Every other defect of a
    file whose CRCs match raises a :class:`FormatError`: an unknown block
    kind or a layout :class:`ArchConfig` refuses, c or alpha_out not
    finite and > 0, a stored scale not finite and > 0, a pad weight bit
    that is not 1, a flag byte other than 0, 1 or 2, a threshold past its
    edge's bound + 1, a degenerate channel whose t2 or t3 is not 0, an
    invalid threshold table, or a body of the wrong length, so every file
    that loads is one ``serialize`` writes back byte for byte.
    Only ``"alpha"`` convs' scales are stored; a ``"c"`` conv's scales are
    c and an ``"alpha_out"`` conv's alpha_out.
    """
    if len(data) < 4:
        raise TruncationError(f"{len(data)} bytes is too short for a model file")
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < 8:
        raise TruncationError("file ends inside the version field")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != FORMAT_VERSION:
        raise VersionError(f"format version {version}, this reader handles {FORMAT_VERSION}")
    if len(data) < _PREFIX:
        raise TruncationError("file ends inside the prefix")
    body_len, prefix_crc = struct.unpack_from("<II", data, 8)
    if zlib.crc32(data[:12]) != prefix_crc:
        raise ChecksumError("prefix CRC32 does not match the stored checksum")
    end = _PREFIX + body_len
    if len(data) < end + 4:
        raise TruncationError(f"file ends at byte {len(data)}, needed {end + 4}")
    if len(data) > end + 4:
        raise FormatError(f"{len(data) - end - 4} unexpected bytes after the checksum")
    body = memoryview(data)[_PREFIX:end]
    if zlib.crc32(body) != struct.unpack_from("<I", data, end)[0]:
        raise ChecksumError("body CRC32 does not match the stored checksum")

    r = _Reader(body)
    block, *sizes, classes, k, c, alpha_out = r.unpack(_HEADER)
    for what, v in (("shared constant c", c), ("head.conv scale alpha_out", alpha_out)):
        if not (np.isfinite(v) and v > 0):
            raise FormatError(f"{what} {v} is not finite and > 0")
    if block >= len(BLOCKS):
        raise FormatError(f"unknown block kind {block}")
    try:
        g = build_model(ArchConfig(BLOCKS[block], tuple(sizes[:4]), tuple(sizes[4:]), classes, k))
    except ConfigError as e:
        raise FormatError(str(e)) from None

    weights: dict[str, PackedWeights] = {}
    thresholds: dict[str, ThresholdTable] = {}
    for node in g.nodes:
        if isinstance(node, Conv):
            s = node.spec
            scale = g.edges[node.dst].scale
            if scale == "alpha":
                alpha = r.array("<f8", s.out_ch).astype(np.float64)
                if not (np.isfinite(alpha) & (alpha > 0)).all():
                    raise FormatError(f"layer '{node.name}': scales must be finite and > 0")
            shape = (s.out_ch, padded_channels(s.in_ch) // LANES, s.kh, s.kw)
            bits = r.array("<u8", math.prod(shape)).astype(np.uint64).reshape(shape)
            if scale != "alpha":  # filled once the words are read, so the width is backed by bytes
                alpha = np.full(s.out_ch, c if scale == "c" else alpha_out)
            lanes = s.in_ch % LANES  # the last word's logical lanes; the rest are pad, stored as 1
            pad = np.uint64(2**64 - (1 << lanes)) if lanes else np.uint64(0)
            if ((bits[:, -1] & pad) != pad).any():
                raise FormatError(f"layer '{node.name}': a pad weight bit is not 1")
            weights[node.name] = PackedWeights(bits=bits, alpha=alpha)
        elif isinstance(node, BnAct):
            rec = r.array(_BNACT_CHANNEL, node.channels)
            t = rec["t"].astype(np.int64)
            if (rec["flags"] >= _ASCENDING | _DEGENERATE).any():  # a degenerate slope is 0
                raise FormatError(f"layer '{node.name}': flag bits must read 0, 1 or 2")
            _check_bound(t, g.edges[node.src].bound, node.name, FormatError)
            degenerate = (rec["flags"] & _DEGENERATE).astype(bool)
            if t[degenerate, 1:].any():
                raise FormatError(f"layer '{node.name}': a degenerate channel's t2, t3 are not 0")
            try:
                thresholds[node.name] = ThresholdTable(
                    t=np.where(degenerate[:, None], 0, t),
                    ascending=(rec["flags"] & _ASCENDING).astype(bool),
                    degenerate=degenerate,
                    const_code=np.where(degenerate, t[:, 0], 0),
                )
            except (DomainError, ShapeError) as e:
                raise FormatError(f"layer '{node.name}': {e}") from None
    if r.pos != len(body):
        raise FormatError(f"{len(body) - r.pos} unexpected bytes after the last record")
    return CompiledModel(
        graph=g, weights=weights, thresholds=thresholds, alpha_out=alpha_out, shared_const=c
    )
