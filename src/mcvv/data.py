"""Synthetic video cohorts and the clip-level work around them.

Covers clip augmentation, subject-disjoint fold planning, and a generator
for imbalanced synthetic cohorts where one class carries a planted
oscillating patch. Clips live on disk as raw little-endian float32 tensors
plus a UTF-8 CSV manifest. A tensor file's values are checked as it is read,
so no caller sees a non-finite clip or weight. `Cohort` decides whether a
manifest and its clips can make a run, and raises DataError, naming the file
at fault, when they cannot. The model config decides whether a clip fits it.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:   # model imports this module
    from mcvv.model import ModelConfig

LABEL_NC = 0
LABEL_MCI = 1
LABEL_NAMES = {LABEL_NC: "NC", LABEL_MCI: "MCI"}
LABEL_IDS = {v: k for k, v in LABEL_NAMES.items()}

ROTATION_MAX_DEG = 15.0
CROP_RATIO = 0.875

# Planted class-1 signal: a centered patch oscillating at this many cycles per clip.
SIGNATURE_CYCLES = 2.0

TENSOR_FILE_MAGIC = b"MCVV"
TENSOR_FILE_MAX_NDIM = 32
INTP_MAX = int(np.iinfo(np.intp).max)   # numpy refuses an array of more bytes


# -- augmentation -------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentParams:
    flip_h: bool = False
    flip_v: bool = False
    angle_deg: float = 0.0
    crop: bool = False


def sample_augment_params(rng: np.random.Generator) -> AugmentParams:
    return AugmentParams(
        flip_h=bool(rng.random() < 0.5),
        flip_v=bool(rng.random() < 0.5),
        angle_deg=float(rng.uniform(-ROTATION_MAX_DEG, ROTATION_MAX_DEG)),
        crop=bool(rng.random() < 0.5),
    )


def _crop_zoom_source(index: np.ndarray, extent: int) -> np.ndarray:
    """Source index of output `index` after a centre crop of CROP_RATIO is
    resized back to `extent`. Corner pixels map to corner pixels, which is
    ndimage.zoom's default grid_mode=False convention; an extent of 1 stays
    at index 0."""
    size = max(1, round(extent * CROP_RATIO))
    scale = (size - 1) / (extent - 1) if extent > 1 else 0.0
    return index * scale + (extent - size) // 2


def _bilinear_taps(height: int, width: int,
                   params: AugmentParams) -> tuple[np.ndarray, np.ndarray]:
    """Flat source indices and bilinear weights, both [H*W, 4], of the map
    that takes each output pixel through crop-resize, then rotation, then
    the flips, back to the pixel it samples in the input frame.

    Rotation turns about ((H-1)/2, (W-1)/2) by ndimage.rotate's matrix.
    Source coordinates are clamped to the frame, which for linear
    interpolation equals ndimage's mode="nearest"."""
    rows = np.arange(height, dtype=np.float64)[:, None]
    cols = np.arange(width, dtype=np.float64)[None, :]
    if params.crop:
        rows = _crop_zoom_source(rows, height)
        cols = _crop_zoom_source(cols, width)
    if params.angle_deg != 0.0:
        angle = math.radians(params.angle_deg)
        cos, sin = math.cos(angle), math.sin(angle)
        dr, dc = rows - (height - 1) / 2, cols - (width - 1) / 2
        rows = cos * dr + sin * dc + (height - 1) / 2
        cols = -sin * dr + cos * dc + (width - 1) / 2
    if params.flip_v:
        rows = (height - 1) - rows
    if params.flip_h:
        cols = (width - 1) - cols
    rows = np.clip(np.broadcast_to(rows, (height, width)), 0, height - 1)
    cols = np.clip(np.broadcast_to(cols, (height, width)), 0, width - 1)
    r0, c0 = np.floor(rows), np.floor(cols)
    fr, fc = rows - r0, cols - c0
    r0, c0 = r0.astype(np.intp), c0.astype(np.intp)
    # Clamped coordinates keep r0 <= H-1; at r0 == H-1 the weight fr is 0.
    r1, c1 = np.minimum(r0 + 1, height - 1), np.minimum(c0 + 1, width - 1)
    index = np.stack([r0 * width + c0, r0 * width + c1,
                      r1 * width + c0, r1 * width + c1], axis=-1)
    weight = np.stack([(1 - fr) * (1 - fc), (1 - fr) * fc,
                       fr * (1 - fc), fr * fc], axis=-1)
    return index.reshape(-1, 4), weight.reshape(-1, 4)


def augment_clip(frames: np.ndarray, params: AugmentParams) -> np.ndarray:
    """Apply one transform sample identically to every frame of a [L,H,W,C] clip.

    Flips, rotation and crop-resize compose into one map, and the clip is
    sampled through it with a single bilinear interpolation."""
    length, height, width, channels = frames.shape
    # Allocated before the temporaries, so the clips a caller keeps do not
    # land above freed temporaries in the heap; the other order raised a
    # default-config training run's peak RSS by up to 9 MB.
    out = np.empty(frames.shape, dtype=frames.dtype)
    index, weight = _bilinear_taps(height, width, params)
    # Both transposes move a pixel's C channels as one item, through a view
    # of each pixel as one void of C values.
    pixel = np.dtype((np.void, channels * frames.dtype.itemsize))
    # Pixel-major [H*W, L*C]: one gather row holds a pixel's values in every
    # frame and channel, which all share that pixel's taps.
    pixels = np.ascontiguousarray(
        np.ascontiguousarray(frames).view(pixel).reshape(length, height * width).T
    ).view(frames.dtype)
    weight = weight.astype(np.promote_types(frames.dtype, np.float32))
    sampled = np.einsum("pk,pkc->pc", weight, np.take(pixels, index, axis=0))
    sampled = sampled.astype(frames.dtype, copy=False).view(pixel)
    out.view(pixel).reshape(length, height, width)[...] = \
        sampled.reshape(height, width, length).transpose(2, 0, 1)
    return out


# -- fold planning ----------------------------------------------------------------------


@dataclass
class FoldPlan:
    k: int
    folds: list[list[str]]                 # fold index -> subject ids


def plan_folds(subject_ids: list[str], l_fold: int, seed: int) -> FoldPlan:
    """Subject-disjoint contiguous folds of l_fold subjects each (one video per
    subject); K = floor(n / l_fold); leftovers join the last fold."""
    n = len(subject_ids)
    if l_fold < 1:
        raise ValueError(f"l_fold must be >= 1, got {l_fold}")
    if n < l_fold:
        raise ValueError(f"{n} videos cannot fill a fold of {l_fold}")
    k = n // l_fold
    rng = np.random.default_rng(seed)
    order = [subject_ids[i] for i in rng.permutation(n)]
    folds = [order[i * l_fold:(i + 1) * l_fold] for i in range(k)]
    folds[-1].extend(order[k * l_fold:])
    return FoldPlan(k=k, folds=folds)


# -- files --------------------------------------------------------------------------------


def write_text_atomic(path: Path | str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    over ``path``, so ``path`` is never partly written: a write that fails
    leaves the old file whole and removes the temporary one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_tensor_file(path: Path | str, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    with open(path, "wb") as f:
        f.write(TENSOR_FILE_MAGIC)
        f.write(np.asarray([arr.ndim], dtype="<u4").tobytes())
        f.write(np.asarray(arr.shape, dtype="<u4").tobytes())
        f.write(arr.tobytes())


class TensorFileError(ValueError):
    """A tensor file whose bytes do not hold the tensor its header describes."""


class DataError(ValueError):
    """A manifest, its clips or a checkpoint that cannot make the run asked
    for. The message names the file or checkpoint directory, and the line or
    parameter where there is one."""


def _read_header(f, path: Path | str) -> tuple[int, ...]:
    """The shape in the header of ``f``, the tensor file ``path`` open at its
    start, once the file's size is that of exactly its header and payload;
    ``f`` is left at the payload. A short, padded or corrupt file raises
    TensorFileError naming ``path``."""
    size = os.fstat(f.fileno()).st_size
    head = f.read(8)
    if head[:4] != TENSOR_FILE_MAGIC:
        raise TensorFileError(f"{path}: bad magic {head[:4]!r}")
    ndim = int.from_bytes(head[4:], "little") if len(head) == 8 else None
    if ndim is None or ndim > TENSOR_FILE_MAX_NDIM or size < 8 + 4 * ndim:
        raise TensorFileError(f"{path}: truncated or bad header")
    shape = tuple(int(x) for x in np.frombuffer(f.read(4 * ndim), dtype="<u4"))
    # numpy refuses a shape whose nonzero extents overflow its byte count,
    # even when a zero extent leaves the array empty
    if 4 * math.prod(e for e in shape if e) > INTP_MAX:
        raise TensorFileError(f"{path}: extents {shape} too large")
    payload, expected = size - 8 - 4 * ndim, 4 * math.prod(shape)
    if payload < expected:
        raise TensorFileError(f"{path}: truncated payload")
    if payload > expected:
        raise TensorFileError(f"{path}: {payload - expected} trailing bytes")
    return shape


def read_tensor_shape(path: Path | str) -> tuple[int, ...]:
    """The shape of the tensor in ``path``, from its header alone, checked
    against the file's size as `read_tensor_file` checks it."""
    with open(path, "rb") as f:
        return _read_header(f, path)


def read_tensor_file(path: Path | str) -> np.ndarray:
    """The float32 tensor in ``path``. The header's extents are checked
    against the file's size before anything is allocated, so a short,
    padded or corrupt file raises TensorFileError naming ``path``. A
    non-finite value, which no header shows, raises DataError naming it."""
    with open(path, "rb") as f:
        data = np.empty(_read_header(f, path), dtype="<f4")
        if f.readinto(data) != data.nbytes:   # the file shrank since fstat
            raise TensorFileError(f"{path}: truncated payload")
    if not np.isfinite(data).all():
        raise DataError(f"{path}: non-finite values")
    return data.astype(np.float32, copy=False)   # a no-op on little-endian hosts


# -- synthetic cohorts ------------------------------------------------------------------------


@dataclass(frozen=True)
class CohortSpec:
    """Cohort generation settings, checked as they are built: a value no
    cohort can use raises ValueError. Each field is the run key of the same
    name (`config.RunConfig`), so an error names the key a user sets."""

    mci: int = 20              # MCI (class 1) subjects
    nc: int = 12               # NC (class 0) subjects
    frames_min: int = 128
    frames_max: int = 256
    clip_len: int = 16
    hw: int = 64               # frame height and width
    channels: int = 3
    strength: float = 0.35     # oscillation amplitude of the planted patch
    rho: float = 0.0           # fraction of class-1 clips left signature-free
    noise: float = 0.05        # pixel noise sigma
    seed: int = 0

    def __post_init__(self):
        for name in ("mci", "nc", "clip_len", "hw", "channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.frames_min > self.frames_max:
            raise ValueError("frames_min > frames_max")
        if self.frames_min < self.clip_len:
            raise ValueError("frames_min below clip_len would yield empty subjects")
        if self.frames_max >= INTP_MAX:
            raise ValueError(f"frames_max must be < {INTP_MAX}, got {self.frames_max}")
        if 8 * self.clip_len * self.hw ** 2 * self.channels > INTP_MAX:   # drawn as float64
            raise ValueError("clip_len, hw and channels make a clip too large for numpy")


MANIFEST_COLUMNS = ("subject_id", "clip_path", "label", "clip_index")


@dataclass(frozen=True)
class ClipRecord:
    subject_id: str
    clip_path: str   # relative to the manifest directory
    label: int
    clip_index: int


def signature_region(height: int, width: int) -> tuple[slice, slice]:
    """Rows/cols of the planted patch: the centered half of the frame."""
    r0, c0 = height // 4, width // 4
    return slice(r0, r0 + height // 2), slice(c0, c0 + width // 2)


def signature_wave(clip_len: int, strength: float) -> np.ndarray:
    t = np.arange(clip_len, dtype=np.float64)
    return strength * np.sin(2.0 * math.pi * SIGNATURE_CYCLES * t / clip_len)


def _make_clip(spec: CohortSpec, rng: np.random.Generator, with_signature: bool) -> np.ndarray:
    shape = (spec.clip_len, spec.hw, spec.hw, spec.channels)
    frames = 0.5 + spec.noise * rng.standard_normal(shape)
    if with_signature:
        rows, cols = signature_region(spec.hw, spec.hw)
        wave = signature_wave(spec.clip_len, spec.strength)
        frames[:, rows, cols, :] += wave[:, None, None, None]
    return np.clip(frames, 0.0, 1.0).astype(np.float32)


def generate_synthetic_cohort(spec: CohortSpec, out_dir: Path | str) -> Path:
    """Write clip files plus manifest.csv under out_dir; returns the manifest path.

    Class-1 subjects carry the oscillating-patch signature on all but a rho
    fraction of their clips (negative samples); class-0 clips are noise only.
    Per-subject clip counts vary across the configured frame range.

    Clips and manifest are written into a temporary directory inside
    ``out_dir``, then swapped in for any cohort there. So a run that fails
    leaves the old cohort whole, or no manifest when it fails mid-swap: never
    a manifest over clips it did not describe.
    """
    out_dir = Path(out_dir)
    clip_dir = out_dir / "clips"
    clip_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".cohort.", dir=out_dir) as work:
        new_clips, new_manifest = Path(work, "clips"), Path(work, "manifest.csv")
        new_clips.mkdir()
        new_manifest.write_text(_write_cohort(spec, new_clips))
        manifest = out_dir / "manifest.csv"
        manifest.unlink(missing_ok=True)   # until the new one is in place
        clip_dir.rename(Path(work, "old"))   # removed with ``work``
        new_clips.rename(clip_dir)
        new_manifest.rename(manifest)
    return manifest


def _write_cohort(spec: CohortSpec, clip_dir: Path) -> str:
    """Write the cohort's clip files into ``clip_dir``; return the text of
    its manifest, whose clip paths run through ``clips/``."""
    rng = np.random.default_rng(spec.seed)

    subjects = [(f"mci{i:02d}", LABEL_MCI) for i in range(spec.mci)]
    subjects += [(f"nc{i:02d}", LABEL_NC) for i in range(spec.nc)]

    records: list[ClipRecord] = []
    mci_clips_seen = 0
    negatives_assigned = 0
    for subject_id, label in subjects:
        n_frames = int(rng.integers(spec.frames_min, spec.frames_max + 1))
        n_clips = n_frames // spec.clip_len

        negative = np.zeros(n_clips, dtype=bool)
        if label == LABEL_MCI:
            # Cumulative-quota rounding keeps the class-wide negative fraction
            # within one clip of rho while staying within one clip per subject.
            target = round(spec.rho * (mci_clips_seen + n_clips)) - negatives_assigned
            target = max(0, min(n_clips, target))
            negative[rng.permutation(n_clips)[:target]] = True
            mci_clips_seen += n_clips
            negatives_assigned += target

        for clip_index in range(n_clips):
            with_signature = label == LABEL_MCI and not negative[clip_index]
            frames = _make_clip(spec, rng, with_signature)
            name = f"{subject_id}_{clip_index:04d}.mcvv"
            write_tensor_file(clip_dir / name, frames)
            records.append(ClipRecord(subject_id, f"clips/{name}", label, clip_index))

    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(MANIFEST_COLUMNS)
    for r in records:
        writer.writerow([r.subject_id, r.clip_path, LABEL_NAMES[r.label], r.clip_index])
    return text.getvalue()


def read_csv_rows(path: Path | str, columns: tuple[str, ...]) -> list[tuple[int, dict]]:
    """The rows of the UTF-8 CSV file ``path``, each with its line number,
    once the header names each of ``columns`` and every row has a value for
    each; otherwise DataError naming ``path`` and the byte, line or columns."""
    try:
        # spreadsheet programs save CSV with a byte order mark, which is no header text
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise DataError(f"{path}: header lacks {', '.join(map(repr, missing))}")
        rows = []
        for row in reader:
            empty = [c for c in columns if not row[c]]
            if empty:
                raise DataError(f"{path}, line {reader.line_num}: no {empty[0]}")
            rows.append((reader.line_num, row))
    except csv.Error as exc:   # such as a field over csv's size limit
        # the DictReader's own line_num still names the last line it returned
        raise DataError(f"{path}, line {reader.reader.line_num}: {exc}") from None
    return rows


class Cohort:
    """The clips a manifest lists and a subject -> clips index, built in one
    pass once each row has a known label, an integer clip index and a clip
    path without a NUL byte, each subject one label, and no two rows name one
    clip file; else DataError naming the manifest, line(s) and value.
    ``manifest_path`` may name a directory, which stands for its
    ``manifest.csv``. No clip file is read here: `check_fits` reads every
    clip's header, and `frames` reads a clip from disk on every call."""

    def __init__(self, manifest_path: Path | str):
        path = Path(manifest_path)
        self.manifest_path = path / "manifest.csv" if path.is_dir() else path
        self.root = self.manifest_path.parent
        if not self.manifest_path.is_file():
            raise DataError(f"no manifest at {self.manifest_path}")
        self.records: list[ClipRecord] = []
        # Subjects in first-appearance order, each with its clips in record order.
        self._clips_by_subject: dict[str, list[int]] = {}
        firsts: dict[str, tuple[int, str]] = {}   # subject id -> its first line and label
        clips: dict[str, int] = {}                # normalised clip path -> its line
        for line, row in read_csv_rows(self.manifest_path, MANIFEST_COLUMNS):
            at = f"{self.manifest_path}, line {line}"
            subject, label = row["subject_id"], row["label"]
            if label not in LABEL_IDS:
                raise DataError(f"{at}: unknown label {label!r}, "
                                f"expected one of {sorted(LABEL_IDS)}")
            try:
                clip_index = int(row["clip_index"])
            except ValueError:
                raise DataError(f"{at}: clip_index {row['clip_index']!r} "
                                f"is not an integer") from None
            if "\0" in row["clip_path"]:   # no file name holds one
                raise DataError(f"{at}: clip_path {row['clip_path']!r} holds a NUL byte")
            first_line, first_label = firsts.setdefault(subject, (line, label))
            if label != first_label:
                raise DataError(f"{at}: subject {subject!r} is labelled {label}, "
                                f"but {first_label} on line {first_line}")
            clip_line = clips.setdefault(os.path.normpath(row["clip_path"]), line)
            if clip_line != line:
                raise DataError(f"{self.manifest_path}, lines {clip_line} and {line}: "
                                f"both name clip {row['clip_path']!r}")
            self._clips_by_subject.setdefault(subject, []).append(len(self.records))
            self.records.append(ClipRecord(subject, row["clip_path"], LABEL_IDS[label],
                                           clip_index))
        if not self.records:
            raise DataError(f"{self.manifest_path}: no clips")

    def check_fits(self, *model_cfgs: ModelConfig, l_fold: int | None = None) -> None:
        """Raise DataError unless a run of each of ``model_cfgs`` can use
        these clips. A run that trains passes its ``l_fold``: the subjects
        must fill two folds of that size, one held out and one to train on.
        Every clip must fit each config (`ModelConfig.fits_clip`). Each
        clip's header is read once; one that its file's size contradicts
        raises TensorFileError."""
        n = len(self._clips_by_subject)
        if l_fold is not None and n < 2 * l_fold:
            raise DataError(f"{self.manifest_path}: {n} subjects cannot fill "
                            f"two folds of {l_fold}")
        fitting = set()
        for record in self.records:
            path = self.root / record.clip_path
            shape = read_tensor_shape(path)
            if shape in fitting:
                continue
            for m in model_cfgs:
                if not m.fits_clip(shape):
                    raise DataError(f"{path}: clip shape {shape} does not fit a model of "
                                    f"{(m.clip_len, m.height, m.width, m.channels)} clips "
                                    f"in {m.tubelet.t}x{m.tubelet.h}x{m.tubelet.w} cubes")
            fitting.add(shape)

    def __len__(self) -> int:
        return len(self.records)

    def frames(self, index: int) -> np.ndarray:
        """The clip of record ``index``, as `read_tensor_file` reads it."""
        return read_tensor_file(self.root / self.records[index].clip_path)

    def subject_ids(self) -> list[str]:
        return list(self._clips_by_subject)

    def subject_label(self, subject_id: str) -> int:
        return self.records[self._clips_by_subject[subject_id][0]].label

    def clips_of(self, subject_id: str) -> list[int]:
        return list(self._clips_by_subject.get(subject_id, ()))
