"""Checkpoint compilation and the .ern model container.

A checkpoint is a directory: ``manifest.json`` naming the architecture
plus one raw little-endian float32 blob per layer (conv weights in
(OC, IC, kh, kw) C order; batch-norm blobs are gamma, beta, mean, var
concatenated).  Any training framework can emit one with a few lines.
Each BnAct's blob, epsilon and act_scale load into one
:class:`ern.quant.BnParams`, which checks them when it is built;
compilation and the float oracle read it through
:meth:`CheckpointManifest.bn_params`, with its statistics at float32 as
the blob holds them.  Conv blobs, the bulk of a
checkpoint, are only size-checked on load; compilation and the oracle
read each one once, in blocks of about ``ern.tensor.BLOCK_BYTES``,
through a :class:`ConvReader`, so neither holds a whole layer's floats.
:meth:`CheckpointManifest.checked_graph` and
:meth:`CheckpointManifest.conv_weights` are the one check of a
checkpoint against its architecture; compilation and the oracle both
start from them, so they refuse the same checkpoints with the same
:class:`CompileError`.

Compilation binarizes every conv, scaling it as its output edge's
``scale`` in the graph says: ``"alpha"``, per-channel alpha = mean |w|;
``"c"``, the shared constant c (the convs feeding a residual add);
``"alpha_out"``, one alpha_out, the correctly rounded mean |w| of the
head conv, which does not depend on summation order.  It folds each
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
of the body.  A BnAct record is its :class:`ern.quant.ThresholdTable`
in the record form the table derives: ``<i4 t1, t2, t3, u1 ascending>``
per channel, t1 <= t2 <= t3 and a flag byte of 1 for an ascending
channel or 0 for a descending one; a constant channel (folded slope
exactly zero) is an ascending row of sentinels.  Every |threshold| is
at most the table's bound + 1, the bound being its input edge's static
one (42,240 at most on a stock model), so i4 holds each.  All
multi-byte values are little-endian; identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import warnings
import zlib
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO

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
    BLOCKS,
    ArchConfig,
    BnAct,
    Conv,
    GraphDef,
    arch_config,
    build_model,
    preset_name,
)
from .quant import BnParams, ThresholdTable, binarize_weights, exact_abs_sum
from .quant import fuse_thresholds
from .tensor import BLOCK_BYTES, LANES, PackedWeights, pack_weights, row_blocks

MAGIC = b"ERN1"
FORMAT_VERSION = 3
MANIFEST_FORMAT = "ern-checkpoint-v1"
_PREFIX = 16  # magic, version, body length, CRC32 of those 12 bytes
# block kind, 4 stage counts, 4 stage widths, classes, k, c, alpha_out
_HEADER = struct.Struct("<B4B4IIIdd")
# one BnAct channel: t1, t2, t3, then its flag byte, 1 ascending and 0 descending
_BNACT_CHANNEL = np.dtype([("t", "<i4", 3), ("ascending", "u1")])
_BN_STATS = ("gamma", "beta", "mean", "var")  # a batch-norm blob's order


# --------------------------------------------------------------------------
# checkpoint manifests


@dataclass(eq=False)
class CheckpointManifest:
    """Float checkpoint: architecture plus per-layer parameter arrays.

    :meth:`graph` is the one source of the graph, :meth:`checked_graph`
    and :meth:`conv_weights` the one check of the held layers against it,
    and :meth:`conv_weights` and :meth:`bn_params` the one read of a
    layer, at float32 as :func:`save_manifest` writes it, for compilation
    and the float oracle alike.
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

    def conv_weights(self, node: Conv) -> ConvReader:
        """A reader of one conv's float weights (:class:`ConvReader`).

        Raises :class:`CompileError` naming the layer if they are missing
        or not shaped as ``node.spec`` (OC, IC, kh, kw); each read then
        checks its values finite.  A loaded manifest's reader reads the
        blob file a block at a time; any other reads slices of the
        ``convs`` array, cast to float32 as :func:`save_manifest` writes
        them.  Either way no layer of floats is held.
        """
        s = node.spec
        want = (s.out_ch, s.in_ch, s.kh, s.kw)
        if isinstance(self.convs, _ConvBlobs):  # a lookup would read the whole blob
            source, shape = self.convs._entries.get(node.name, (None, None))
        else:
            source = self.convs.get(node.name)
            shape = None if source is None else source.shape
        if source is None:
            raise CompileError(node.name, "missing conv weights")
        if shape != want:
            raise CompileError(node.name, f"weights shaped {shape}, expected {want}")
        return ConvReader(node.name, want, source)

    def bn_params(self, node: BnAct) -> BnParams:
        """One BnAct's parameters, each statistic rounded to float32.

        They read as :func:`save_manifest` writes them, so a manifest in
        memory folds what its saved copy folds.  A record whose statistics
        are float32 values already is returned as it is held; one that
        passes float32's range raises :class:`CompileError` naming the
        layer.  The record must be present (:meth:`checked_graph`).
        """
        rec = self.bnacts[node.name]
        with np.errstate(over="ignore"):  # an overflow is an inf, refused below
            stats = [getattr(rec, f).astype(np.float32) for f in _BN_STATS]
        if all(np.array_equal(a, getattr(rec, f)) for a, f in zip(stats, _BN_STATS)):
            return rec
        try:
            return BnParams(*stats, epsilon=rec.epsilon, act_scale=rec.act_scale)
        except DomainError as e:
            raise CompileError(node.name, str(e)) from None


class ConvReader:
    """One conv's float32 weights, read as ranges of their flat (OC, IC, kh, kw) C order.

    ``w[start:stop]`` reads that range and ``w.rows(rows)`` a block of
    output channels, shaped (rows, IC, kh, kw).  Nothing is cached: each
    read returns a new range, so a pass over the layer holds one range at
    a time.  Over a blob file, the reader keeps the file open until it is
    closed (it is a context manager), and each read checks the file's
    size again and is one ``np.fromfile`` of the range; a blob that no
    longer holds its layer's bytes raises :class:`ConfigError` naming the
    layer.  Over an array, a read is a slice cast to float32 as
    :func:`save_manifest` writes it, so an array and its saved copy read
    the same values (a value past float32's range reads as infinite).
    Every read is float32 and checks its values finite
    (:class:`CompileError` naming the layer).
    """

    def __init__(self, name: str, shape: tuple[int, ...], source: np.ndarray | Path):
        self.name = name
        self.shape = shape
        self.size = math.prod(shape)
        self._flat = self._file = None
        if isinstance(source, np.ndarray):
            self._flat = source.reshape(-1)
        else:
            try:
                self._file = open(source, "rb")
            except OSError as e:
                raise ConfigError(f"layer '{name}': cannot read blob: {e}") from e

    def __getitem__(self, span: slice) -> np.ndarray:
        start, stop, _ = span.indices(self.size)
        if self._file is None:
            block = self._flat[start:stop]
        else:
            where = f"layer '{self.name}'"
            _check_conv_blob(where, os.fstat(self._file.fileno()).st_size, self.shape)
            self._file.seek(4 * start)
            block = np.fromfile(self._file, dtype="<f4", count=stop - start)
            if block.size != stop - start:  # cut short after the size check
                raise ConfigError(f"{where}: blob ends inside element {start + block.size}")
        with np.errstate(over="ignore"):  # an overflow is an inf, refused below
            block = block.astype(np.float32, copy=False)
        if not np.isfinite(block).all():
            raise CompileError(self.name, "weights contain non-finite values")
        return block

    def rows(self, rows: slice) -> np.ndarray:
        """Output channels ``rows``, shaped (rows, IC, kh, kw)."""
        fan = self.size // self.shape[0]
        return self[rows.start * fan : rows.stop * fan].reshape(-1, *self.shape[1:])

    def close(self) -> None:
        """Close the blob file, or let go of the array."""
        if self._file is not None:
            self._file.close()
        self._flat = None

    def __enter__(self) -> ConvReader:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _float32_blob(name: str, values: np.ndarray) -> np.ndarray:
    """``values`` as the little-endian float32 of a blob; :class:`ConfigError` if one is infinite."""
    with np.errstate(over="ignore"):  # an overflow is an inf, refused below
        blob = np.ascontiguousarray(values, dtype="<f4")
    if not np.isfinite(blob).all():
        raise ConfigError(f"layer '{name}': a value is not finite as float32")
    return blob


def save_manifest(m: CheckpointManifest, path: str | Path) -> None:
    """Write manifest.json plus one float32 blob per layer.

    The manifest names its architecture: the preset of ``ARCHITECTURES``
    whose layout is ``m.arch``'s up to k.  Any other layout, any batch-norm
    statistic that is not finite as float32, and any conv weight held
    wider than float32 that is not finite when cast to it (a float64
    value past its range), raise :class:`ConfigError` naming it before
    anything is written.  A conv array already at float32, as every
    loaded and generated one is, is written as held.
    """
    preset = preset_name(m.arch)
    if preset is None:
        raise ConfigError(f"a manifest names a preset architecture; no preset has {m.arch}")
    bn_blobs = {
        name: _float32_blob(name, np.concatenate([getattr(rec, f) for f in _BN_STATS]))
        for name, rec in m.bnacts.items()
    }
    if not isinstance(m.convs, _ConvBlobs):  # a lookup there reads a float32 blob
        for name, w in m.convs.items():
            if np.asarray(w).dtype != np.float32:  # checked here, cast again as written
                _float32_blob(name, w)
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    layers: dict[str, dict] = {}
    for name, w in m.convs.items():
        blob = np.ascontiguousarray(w, dtype="<f4")
        (root / f"{name}.bin").write_bytes(blob.tobytes())
        layers[name] = {"kind": "conv", "shape": list(w.shape), "file": f"{name}.bin"}
    for name, rec in m.bnacts.items():
        (root / f"{name}.bin").write_bytes(bn_blobs[name].tobytes())
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

    Each lookup reads that one whole blob, checks its size again and
    returns a fresh writable float32 array; nothing is cached.
    Compilation and the oracle do not look layers up: they read each
    blob in blocks through :meth:`CheckpointManifest.conv_weights`.
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
    ``"alpha_out"``, one alpha_out, the correctly rounded mean |w|;
    ``"alpha"``, per-channel alpha = mean |w| summed in 64-bit reals,
    with all-zero filters substituting alpha = 1 under a warning.  Each
    BnAct folds against whichever scale its producing
    edge carries, clamped to that edge's accumulator bound; a fold that
    is not finite over that bound, in its folded form or as the float
    composition it replaces, raises :class:`CompileError` naming the
    BnAct.

    Each conv is read one float32 block of output channels at a time
    (:func:`ern.tensor.row_blocks`, a block's weights being about
    ``ern.tensor.BLOCK_BYTES``), and each weight is read once.  Each
    block is binarized (:func:`binarize_weights`) and packed
    (:func:`pack_weights`) into its rows of the conv's one word array;
    the head's blocks also add their exact |w| sums
    (:func:`ern.quant.exact_abs_sum`), which the oracle computes the same
    way.  No layer of floats or signs is held: compilation holds the
    words packed so far and temporaries of one block.
    """
    g, c = manifest.checked_graph(shared_const)
    weights: dict[str, PackedWeights] = {}
    alpha_out, head_sum = 1.0, 0
    for node in g.convs:
        s = node.spec
        bits = np.empty(s.word_shape, np.uint64)
        alpha = np.empty(s.out_ch)
        zero = 0  # all-zero filters
        scale = g.edges[node.dst].scale
        with manifest.conv_weights(node) as w:
            for rows in row_blocks(s.out_ch, 4 * s.fan_in):
                block = w.rows(rows)
                if scale == "alpha_out":
                    head_sum += exact_abs_sum(block)
                signs, a = binarize_weights(block)
                del block  # else packing, and the next read, sit beside the floats
                zero += int(np.count_nonzero(a == 0.0))
                alpha[rows] = np.where(a == 0.0, 1.0, a)
                bits[rows] = pack_weights(signs, alpha[rows]).bits
        if scale == "alpha_out":
            alpha_out = float(head_sum / w.size) or 1.0
        if zero:
            warnings.warn(
                f"layer '{node.name}': {zero} all-zero filter(s), using alpha = 1", stacklevel=2
            )
        if scale != "alpha":
            alpha = np.full(s.out_ch, alpha_out if scale == "alpha_out" else c)
        weights[node.name] = PackedWeights(bits=bits, alpha=alpha)

    thresholds: dict[str, ThresholdTable] = {}
    for bn in g.bnacts:
        info = g.edges[bn.src]
        alpha = np.full(bn.channels, c) if info.scale == "c" else weights[info.producer].alpha
        try:
            thresholds[bn.name] = fuse_thresholds(alpha, manifest.bn_params(bn), info.bound)
        except DomainError as e:
            raise CompileError(bn.name, str(e)) from None

    return CompiledModel(
        graph=g, weights=weights, thresholds=thresholds, alpha_out=alpha_out, shared_const=c
    )


# --------------------------------------------------------------------------
# .ern serialization


def serialize(model: CompiledModel, out: BinaryIO | None = None) -> bytes | int:
    """Encode a compiled model as .ern bytes (see module docstring).

    The header stores ``graph.arch``, and one walk over ``graph.nodes``
    makes each conv's and BnAct's record.  A threshold table whose
    ``bound`` is not its input edge's raises :class:`DomainError`, and a
    graph with no ``arch`` (wired by hand), which ``load`` could not
    rebuild, raises :class:`ConfigError`; either is raised before
    anything is written.

    The records are buffers (the model's own contiguous ``<u8`` words and
    ``<f8`` scales, and one small array per BnAct), and the body CRC is
    taken over them one by one.  They then go to one sink: without
    ``out``, one join returns the file's bytes, so the call holds the
    BnAct records and the file beside the model; with ``out``, an open
    binary file, the prefix, the records and the CRC are written to it
    in order and the call returns the count of bytes written, holding
    only the BnAct records beside the model.
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
                parts.append(np.ascontiguousarray(w.alpha, dtype="<f8"))
            parts.append(np.ascontiguousarray(w.bits, dtype="<u8"))
        elif isinstance(node, BnAct):
            tbl, bound = model.thresholds[node.name], g.edges[node.src].bound
            if tbl.bound != bound:
                raise DomainError(
                    f"layer '{node.name}': table bound {tbl.bound} is not its edge's bound {bound}"
                )
            rec = np.empty(node.channels, dtype=_BNACT_CHANNEL)
            rec["t"] = tbl.t
            rec["ascending"] = tbl.ascending
            parts.append(rec)
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    body = sum(memoryview(p).nbytes for p in parts)
    prefix = MAGIC + struct.pack("<II", FORMAT_VERSION, body)
    chunks = [prefix, struct.pack("<I", zlib.crc32(prefix)), *parts, struct.pack("<I", crc)]
    if out is None:
        return b"".join(chunks)
    for chunk in chunks:
        out.write(chunk)
    return _PREFIX + body + 4


class _Reader:
    """Reads ``length`` bytes of a file from offset ``start``, in order, each field into a new array.

    Reading past ``length`` is a :class:`FormatError` (a body too short
    for its graph), and a file that ends early a :class:`TruncationError`.
    ``crc`` is the CRC32 of the bytes read so far.
    """

    def __init__(self, f: BinaryIO, start: int, length: int):
        f.seek(start)
        self.f, self.length = f, length
        self.pos = self.crc = 0

    def array(self, dtype, count: int) -> np.ndarray:
        """The next ``count`` values of ``dtype``, read into an array that owns them."""
        n = np.dtype(dtype).itemsize * count
        if self.pos + n > self.length:
            raise FormatError(f"body of {self.length} bytes is too short for its records")
        out = np.empty(count, dtype)
        octets = out.view(np.uint8)
        if self.f.readinto(octets) != n:
            raise TruncationError(f"file ends inside its {self.length}-byte body")
        self.crc = zlib.crc32(octets, self.crc)
        self.pos += n
        return out

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.array(np.uint8, fmt.size))


def load(source: bytes | BinaryIO) -> CompiledModel:
    """Decode a .ern file in one pass over the graph (see module docstring).

    ``source`` is the file's bytes, or an open binary file, read from
    its position to its end; bytes, and a file that cannot seek (a
    pipe), are read through ``io.BytesIO``, which shares a ``bytes``
    object, so all take the one parser, with the same checks and
    errors.  Magic, version, the prefix
    CRC, the file length the prefix declares and the body CRC are all
    checked before any body field is read, so a file that ends early
    raises :class:`TruncationError` and one whose bytes changed raises
    :class:`ChecksumError` (or :class:`BadMagicError` or
    :class:`VersionError` for those fields).  Every other defect of a
    file whose CRCs match raises a :class:`FormatError`: an unknown block
    kind or a layout :class:`ArchConfig` refuses, c or alpha_out not
    finite and > 0, a stored scale not finite and > 0, a pad weight bit
    that is not 1, a flag byte other than 0 or 1, a BnAct record that
    is not a valid :class:`ThresholdTable` for its input edge's bound
    (a threshold past bound + 1 or an unsorted row), or a body of the
    wrong length, so every file that loads is one ``serialize`` writes
    back byte for byte.
    Only ``"alpha"`` convs' scales are stored; a ``"c"`` conv's scales are
    c and an ``"alpha_out"`` conv's alpha_out.

    The body CRC is taken in chunks of ``BLOCK_BYTES``, then each field
    is read (``readinto``) straight into its final array, so the call
    holds the model and one chunk, never the file's bytes beside the
    model.  The bytes parsed are checked against the CRC too, so a file
    that changed between the two reads does not load
    (:class:`ChecksumError`, or the error of a record the change broke).
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        f = io.BytesIO(source)
    elif not source.seekable():  # a pipe is read whole, as its bytes
        f = io.BytesIO(source.read())
    else:
        f = source
    base = f.tell()
    size = f.seek(0, io.SEEK_END) - base
    f.seek(base)
    head = f.read(_PREFIX)
    if size < 4:
        raise TruncationError(f"{size} bytes is too short for a model file")
    if head[:4] != MAGIC:
        raise BadMagicError(f"bad magic {head[:4]!r}, expected {MAGIC!r}")
    if size < 8:
        raise TruncationError("file ends inside the version field")
    (version,) = struct.unpack_from("<I", head, 4)
    if version != FORMAT_VERSION:
        raise VersionError(f"format version {version}, this reader handles {FORMAT_VERSION}")
    if size < _PREFIX:
        raise TruncationError("file ends inside the prefix")
    body_len, prefix_crc = struct.unpack_from("<II", head, 8)
    if zlib.crc32(head[:12]) != prefix_crc:
        raise ChecksumError("prefix CRC32 does not match the stored checksum")
    end = _PREFIX + body_len
    if size < end + 4:
        raise TruncationError(f"file ends at byte {size}, needed {end + 4}")
    if size > end + 4:
        raise FormatError(f"{size - end - 4} unexpected bytes after the checksum")
    f.seek(base + end)
    (crc,) = struct.unpack("<I", f.read(4))
    r = _Reader(f, base + _PREFIX, body_len)
    while r.pos < body_len:
        r.array(np.uint8, min(BLOCK_BYTES, body_len - r.pos))
    if r.crc != crc:
        raise ChecksumError("body CRC32 does not match the stored checksum")

    r = _Reader(f, base + _PREFIX, body_len)
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
                alpha = r.array("<f8", s.out_ch).astype(np.float64, copy=False)
                if not (np.isfinite(alpha) & (alpha > 0)).all():
                    raise FormatError(f"layer '{node.name}': scales must be finite and > 0")
            bits = r.array("<u8", math.prod(s.word_shape)).astype(np.uint64, copy=False)
            bits = bits.reshape(s.word_shape)
            if scale != "alpha":  # filled once the words are read, so the width is backed by bytes
                alpha = np.full(s.out_ch, c if scale == "c" else alpha_out)
            lanes = s.in_ch % LANES  # the last word's logical lanes; the rest are pad, stored as 1
            pad = np.uint64(2**64 - (1 << lanes)) if lanes else np.uint64(0)
            if ((bits[:, -1] & pad) != pad).any():
                raise FormatError(f"layer '{node.name}': a pad weight bit is not 1")
            weights[node.name] = PackedWeights(bits=bits, alpha=alpha)
        elif isinstance(node, BnAct):
            rec = r.array(_BNACT_CHANNEL, node.channels)
            if (rec["ascending"] > 1).any():
                raise FormatError(f"layer '{node.name}': a flag byte is not 0 or 1")
            try:
                thresholds[node.name] = ThresholdTable(
                    rec["t"], rec["ascending"], g.edges[node.src].bound
                )
            except (DomainError, ShapeError) as e:
                raise FormatError(f"layer '{node.name}': {e}") from None
    if r.pos != body_len:
        raise FormatError(f"{body_len - r.pos} unexpected bytes after the last record")
    if r.crc != crc:
        raise ChecksumError("body changed after its CRC32 was checked")
    return CompiledModel(
        graph=g, weights=weights, thresholds=thresholds, alpha_out=alpha_out, shared_const=c
    )
