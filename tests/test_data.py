"""Augmentation, fold planning, tensor files, and cohort generation and loading."""

import csv
import hashlib
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage   # reference for the single-resample augmentation only

from mcvv import data as D


# -- augmentation ------------------------------------------------------------------------


@pytest.fixture
def clip():
    rng = np.random.default_rng(0)
    return rng.random((8, 16, 16, 3)).astype(np.float32)


def test_identity_params_leave_clip_unchanged(clip):
    out = D.augment_clip(clip, D.AugmentParams())
    np.testing.assert_array_equal(out, clip)


def test_hflip_is_involution(clip):
    p = D.AugmentParams(flip_h=True)
    np.testing.assert_array_equal(D.augment_clip(D.augment_clip(clip, p), p), clip)


def test_vflip_is_involution(clip):
    p = D.AugmentParams(flip_v=True)
    np.testing.assert_array_equal(D.augment_clip(D.augment_clip(clip, p), p), clip)


def test_same_transform_for_all_frames():
    # a clip of identical frames must stay identical across frames
    frame = np.random.default_rng(1).random((16, 16, 3)).astype(np.float32)
    clip = np.stack([frame] * 8)
    out = D.augment_clip(clip, D.sample_augment_params(np.random.default_rng(7)))
    for k in range(1, 8):
        np.testing.assert_array_equal(out[k], out[0])


def test_augment_preserves_shape_dtype_and_range(clip):
    rng = np.random.default_rng(3)
    for _ in range(10):
        out = D.augment_clip(clip, D.sample_augment_params(rng))
        assert out.shape == clip.shape
        assert out.dtype == clip.dtype
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_augment_deterministic_per_seed(clip):
    a = D.augment_clip(clip, D.sample_augment_params(np.random.default_rng(42)))
    b = D.augment_clip(clip, D.sample_augment_params(np.random.default_rng(42)))
    np.testing.assert_array_equal(a, b)


def test_rotation_angle_within_bounds():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = D.sample_augment_params(rng)
        assert -15.0 <= p.angle_deg <= 15.0


def test_sample_augment_params_pinned_per_seed():
    # a seed must keep mapping to the same transforms: draw order is
    # flip_h, flip_v, angle, crop
    rng = np.random.default_rng(0)
    assert [D.sample_augment_params(rng) for _ in range(3)] == [
        D.AugmentParams(flip_h=False, flip_v=True, angle_deg=-13.77079428191416, crop=True),
        D.AugmentParams(flip_h=False, flip_v=False, angle_deg=3.1990732730153972, crop=False),
        D.AugmentParams(flip_h=False, flip_v=False, angle_deg=9.475606623645966, crop=True),
    ]


def _two_pass_reference(frames, params):
    """Flips, then ndimage.rotate, then centre crop and ndimage.zoom: one
    bilinear interpolation per geometric step."""
    out = frames
    if params.flip_h:
        out = out[:, :, ::-1, :]
    if params.flip_v:
        out = out[:, ::-1, :, :]
    if params.angle_deg != 0.0:
        out = ndimage.rotate(out, params.angle_deg, axes=(1, 2),
                             reshape=False, order=1, mode="nearest")
    if params.crop:
        _, height, width, _ = out.shape
        ch = max(1, round(height * D.CROP_RATIO))
        cw = max(1, round(width * D.CROP_RATIO))
        r0, c0 = (height - ch) // 2, (width - cw) // 2
        out = ndimage.zoom(out[:, r0:r0 + ch, c0:c0 + cw, :], (1.0, height / ch, width / cw, 1.0),
                           order=1, mode="nearest")
    return out


def _smooth_clip(shape):
    length, height, width, channels = shape
    r = np.linspace(0.0, 1.0, height)[None, :, None, None]
    c = np.linspace(0.0, 1.0, width)[None, None, :, None]
    k = np.arange(length)[:, None, None, None]
    ch = np.arange(channels)[None, None, None, :]
    return (0.5 + 0.2 * np.sin(3 * r + 1 + 0.1 * k) * np.cos(2 * c + 0.3 * ch)).astype(np.float32)


@pytest.fixture
def big_clip():
    return np.random.default_rng(2).random((16, 64, 64, 3)).astype(np.float32)


@pytest.mark.parametrize("angle", [-15.0, -7.3, 0.4, 11.0, 15.0])
def test_rotation_only_matches_ndimage_rotate(big_clip, angle):
    out = D.augment_clip(big_clip, D.AugmentParams(angle_deg=angle))
    ref = ndimage.rotate(big_clip, angle, axes=(1, 2), reshape=False, order=1, mode="nearest")
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)


@pytest.mark.parametrize("flip_h,flip_v", [(False, False), (True, False), (True, True)])
def test_crop_only_matches_crop_then_zoom(big_clip, flip_h, flip_v):
    params = D.AugmentParams(flip_h=flip_h, flip_v=flip_v, crop=True)
    out = D.augment_clip(big_clip, params)
    np.testing.assert_allclose(out, _two_pass_reference(big_clip, params), rtol=0, atol=1e-6)


def test_combined_params_match_two_pass_on_smooth_clip():
    # one interpolation instead of two blurs less, so pixel values move
    # slightly; on a smooth clip the two stay close
    clip = _smooth_clip((16, 64, 64, 3))
    rng = np.random.default_rng(4)
    for _ in range(20):
        params = D.sample_augment_params(rng)
        out = D.augment_clip(clip, params)
        np.testing.assert_allclose(out, _two_pass_reference(clip, params), rtol=0, atol=5e-3,
                                   err_msg=str(params))


def test_constant_clip_stays_constant():
    # nearest-edge fill: no border value leaks in
    clip = np.full((4, 12, 10, 3), 0.7, dtype=np.float32)
    rng = np.random.default_rng(6)
    for _ in range(50):
        out = D.augment_clip(clip, D.sample_augment_params(rng))
        np.testing.assert_allclose(out, 0.7, rtol=0, atol=1e-6)


@pytest.mark.parametrize("shape", [(4, 1, 8, 3), (4, 8, 1, 3), (4, 2, 2, 1)])
def test_degenerate_extents_match_two_pass(shape):
    # extents of 1 and 2: every source index stays in range and the map is
    # the identity along an axis of extent 1
    clip = np.random.default_rng(8).random(shape).astype(np.float32)
    for params in (D.AugmentParams(crop=True), D.AugmentParams(angle_deg=12.0)):
        out = D.augment_clip(clip, params)
        assert out.shape == clip.shape
        np.testing.assert_allclose(out, _two_pass_reference(clip, params), rtol=0, atol=1e-6,
                                   err_msg=str(params))
    smooth = _smooth_clip(shape)
    params = D.AugmentParams(flip_h=True, flip_v=True, angle_deg=-12.0, crop=True)
    np.testing.assert_allclose(D.augment_clip(smooth, params),
                               _two_pass_reference(smooth, params), rtol=0, atol=5e-3)


# Digests of augment_clip's output for the clips below, from the
# implementation that transposed values one by one; moving each pixel's
# channels as one item must leave every bit as it was.
AUGMENT_DIGESTS = {
    ("float32", 1): "0ce79bb8073cb8741d689906a4d59e793f950f185041c36b8d11567dbde7176d",
    ("float32", 3): "62893a9bce3fdd0cdb67e29bca5e6cc3d1837792921d38a8dc40fa91ebe95dd1",
    ("float64", 1): "63a2ed2aa3a77a2a5df1acdf3b28cae971cbb387b552f01a84925eb5aa169461",
    ("float64", 3): "b30e4c1975fe4a0e4125d1dbc6ae28f6d50fab3b916d5f95e1f7dd8cd650b61c",
}


@pytest.mark.parametrize("dtype, channels", sorted(AUGMENT_DIGESTS))
def test_augment_output_pinned_bit_for_bit(dtype, channels):
    clip = np.random.default_rng(5).random((5, 11, 9, channels)).astype(dtype)
    params = D.AugmentParams(flip_h=True, flip_v=False, angle_deg=-9.5, crop=True)
    out = D.augment_clip(clip, params)
    assert out.dtype == clip.dtype
    assert hashlib.sha256(out.tobytes()).hexdigest() == AUGMENT_DIGESTS[dtype, channels]


# -- fold planning ----------------------------------------------------------------------------


def _subjects(n):
    return [f"s{i:03d}" for i in range(n)]


def test_plan_folds_documented_counts():
    assert D.plan_folds(_subjects(39), 3, seed=0).k == 13
    assert D.plan_folds(_subjects(35), 3, seed=0).k == 11
    assert D.plan_folds(_subjects(32), 3, seed=0).k == 10


def test_plan_folds_disjoint_and_sized():
    plan = D.plan_folds(_subjects(40), 3, seed=1)
    assert plan.k == 13
    all_subjects = [s for fold in plan.folds for s in fold]
    assert sorted(all_subjects) == _subjects(40)
    assert all(len(f) == 3 for f in plan.folds[:-1])
    assert len(plan.folds[-1]) == 4  # leftover joins the last fold


def test_plan_folds_rejects_too_few():
    with pytest.raises(ValueError):
        D.plan_folds(_subjects(2), 3, seed=0)


def test_plan_folds_seed_determinism():
    a = D.plan_folds(_subjects(20), 3, seed=9)
    b = D.plan_folds(_subjects(20), 3, seed=9)
    assert a.folds == b.folds
    c = D.plan_folds(_subjects(20), 3, seed=10)
    assert a.folds != c.folds


@given(n=st.integers(1, 200), l_fold=st.integers(1, 10))
@settings(max_examples=200, deadline=None)
def test_plan_folds_property(n, l_fold):
    if n < l_fold:
        with pytest.raises(ValueError):
            D.plan_folds(_subjects(n), l_fold, seed=0)
        return
    plan = D.plan_folds(_subjects(n), l_fold, seed=0)
    assert plan.k == n // l_fold
    assert sum(len(f) for f in plan.folds) == n
    assert len(plan.folds) == plan.k and all(plan.folds)
    assert len({s for fold in plan.folds for s in fold}) == n   # disjoint folds


# -- tensor files -------------------------------------------------------------------------------


def test_tensor_file_roundtrip(tmp_path):
    arr = np.random.default_rng(0).random((4, 5, 6)).astype(np.float32)
    path = tmp_path / "t.mcvv"
    D.write_tensor_file(path, arr)
    out = D.read_tensor_file(path)
    np.testing.assert_array_equal(out, arr)
    assert out.dtype == np.float32


def test_tensor_file_bad_magic(tmp_path):
    path = tmp_path / "bad.mcvv"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        D.read_tensor_file(path)


def test_tensor_file_truncated_payload(tmp_path):
    path = tmp_path / "short.mcvv"
    D.write_tensor_file(path, np.ones((2, 3), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match=re.escape(f"{path}: truncated payload")):
        D.read_tensor_file(path)


def test_tensor_file_header_layout(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "t.mcvv"
    D.write_tensor_file(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == b"MCVV"
    assert np.frombuffer(raw[4:8], dtype="<u4")[0] == 2
    assert tuple(np.frombuffer(raw[8:16], dtype="<u4")) == (2, 3)
    assert len(raw) == 16 + 6 * 4


# Everything a read may allocate besides the payload: file buffer, header,
# shape tuple, exception message.
READ_OVERHEAD_BYTES = 64 * 1024


def test_tensor_file_trailing_bytes(tmp_path):
    path = tmp_path / "long.mcvv"
    D.write_tensor_file(path, np.ones((2, 3), dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"\x00" * 3)
    with pytest.raises(D.TensorFileError, match=re.escape(f"{path}: 3 trailing bytes")):
        D.read_tensor_file(path)


def test_tensor_file_empty_shape_too_large_for_numpy_fails_header_and_read_alike(tmp_path):
    path = tmp_path / "huge.mcvv"   # zero elements, but 4 * the other extents exceeds intp
    path.write_bytes(b"MCVV" + _u4(4) + _u4(0) + _u4(2**16) + _u4(2**23) + _u4(2**23))
    for read in (D.read_tensor_shape, D.read_tensor_file):
        with pytest.raises(D.TensorFileError, match="too large"):
            read(path)


@pytest.mark.parametrize("raw", [
    b"MCVV",                                                    # no ndim
    b"MCVV\x02\x00\x00\x00\x01\x00\x00\x00",                    # one of two extents
    b"MCVV\xff\xff\xff\xff",                                    # ndim 2**32 - 1
    b"MCVV\x02\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff",    # a 64 EiB payload
])
def test_tensor_file_header_checked_against_file_size(raw, tmp_path):
    path = tmp_path / "head.mcvv"
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(D.TensorFileError, match=re.escape(str(path))):
            D.read_tensor_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < READ_OVERHEAD_BYTES


def _u4(value: int) -> bytes:
    return value.to_bytes(4, "little")


@st.composite
def _tensor_file_bytes(draw):
    """Arbitrary bytes, or a well-formed magic followed by an ndim, extents
    and a payload that may or may not agree with each other."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    extent = st.integers(0, 4) | st.integers(0, 2**32 - 1)
    ndim = draw(st.integers(0, 5) | st.integers(0, 2**32 - 1))
    extents = draw(st.lists(extent, max_size=min(ndim, 6)))
    return (D.TENSOR_FILE_MAGIC + _u4(ndim) + b"".join(_u4(e) for e in extents)
            + draw(st.binary(max_size=4 * 64)))


@settings(max_examples=300, deadline=None)
@given(raw=_tensor_file_bytes())
def test_tensor_file_fuzz_raises_only_value_error_within_file_size(raw, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.mcvv"
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        try:
            arr = D.read_tensor_file(path)
        except ValueError:
            arr = None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(raw) + READ_OVERHEAD_BYTES
    try:   # the header alone accepts the same files
        shape = D.read_tensor_shape(path)
    except D.TensorFileError:
        shape = None
    assert shape == (None if arr is None else arr.shape)
    if arr is not None:
        ndim = int.from_bytes(raw[4:8], "little")
        assert arr.ndim == ndim and 8 + 4 * ndim + arr.nbytes == len(raw)


# -- cohort generation -----------------------------------------------------------------------------


def _tiny_spec(**kw):
    defaults = dict(mci=4, nc=3, frames_min=32, frames_max=64,
                    clip_len=16, hw=16, channels=3,
                    strength=0.35, rho=0.0, noise=0.0, seed=5)
    defaults.update(kw)
    return D.CohortSpec(**defaults)


def _signature_energy(frames):
    rows, cols = D.signature_region(frames.shape[1], frames.shape[2])
    series = frames[:, rows, cols, :].mean(axis=(1, 2, 3))
    spectrum = np.abs(np.fft.rfft(series - series.mean()))
    return spectrum[int(D.SIGNATURE_CYCLES)]


def test_cohort_class_counts(tmp_path):
    manifest = D.generate_synthetic_cohort(_tiny_spec(mci=20, nc=12,
                                                      frames_min=32, frames_max=48),
                                           tmp_path)
    cohort = D.Cohort(manifest)
    labels = [cohort.subject_label(s) for s in cohort.subject_ids()]
    assert labels.count(D.LABEL_MCI) == 20
    assert labels.count(D.LABEL_NC) == 12


def test_cohort_determinism(tmp_path):
    # at noise 0 and rho 0 a clip's contents would not depend on the seed
    m1 = D.generate_synthetic_cohort(_tiny_spec(noise=0.1, rho=0.3), tmp_path / "a")
    m2 = D.generate_synthetic_cohort(_tiny_spec(noise=0.1, rho=0.3), tmp_path / "b")
    other = D.generate_synthetic_cohort(_tiny_spec(noise=0.1, rho=0.3, seed=6), tmp_path / "c")
    assert m1.read_text() == m2.read_text()
    c1, c2, c3 = D.Cohort(m1), D.Cohort(m2), D.Cohort(other)
    for i in range(len(c1)):
        np.testing.assert_array_equal(c1.frames(i), c2.frames(i))
    assert any(not np.array_equal(c1.frames(i), c3.frames(i))
               for i in range(min(len(c1), len(c3))))


def test_cohort_separable_by_temporal_spectrum(tmp_path):
    manifest = D.generate_synthetic_cohort(_tiny_spec(noise=0.0, rho=0.0), tmp_path)
    cohort = D.Cohort(manifest)
    mci_energy, nc_energy = [], []
    for i, rec in enumerate(cohort.records):
        energy = _signature_energy(cohort.frames(i))
        (mci_energy if rec.label == D.LABEL_MCI else nc_energy).append(energy)
    assert min(mci_energy) > max(nc_energy)


def test_cohort_negative_fraction(tmp_path):
    rho = 0.3
    manifest = D.generate_synthetic_cohort(
        _tiny_spec(rho=rho, noise=0.0, frames_min=64, frames_max=160), tmp_path)
    cohort = D.Cohort(manifest)
    mci = [i for i, r in enumerate(cohort.records) if r.label == D.LABEL_MCI]
    silent = sum(1 for i in mci if _signature_energy(cohort.frames(i)) < 1e-9)
    assert abs(silent - rho * len(mci)) <= 1.0


def test_cohort_pixel_range_and_clip_len(tmp_path):
    manifest = D.generate_synthetic_cohort(_tiny_spec(noise=0.1), tmp_path)
    cohort = D.Cohort(manifest)
    for i in range(len(cohort)):
        frames = cohort.frames(i)
        assert frames.shape == (16, 16, 16, 3)
        assert frames.min() >= 0.0 and frames.max() <= 1.0


@pytest.mark.parametrize("fail", ["rows", "disk"])
def test_failed_manifest_write_leaves_no_manifest_or_the_old_one(fail, tmp_path, monkeypatch):
    real_writer, real_write_text = csv.writer, Path.write_text

    def writer_failing_after_5_rows(f, *args, **kwargs):
        inner, written = real_writer(f, *args, **kwargs), []

        def writerow(row):
            if len(written) == 5:
                raise OSError(5, "Input/output error")
            written.append(row)
            return inner.writerow(row)

        return SimpleNamespace(writerow=writerow)

    def disk_full_halfway(self, text, *args, **kwargs):
        real_write_text(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    def generate_failing(spec):
        with monkeypatch.context() as m:
            if fail == "rows":
                m.setattr(csv, "writer", writer_failing_after_5_rows)
            else:
                m.setattr(Path, "write_text", disk_full_halfway)
            with pytest.raises(OSError):
                D.generate_synthetic_cohort(spec, tmp_path)
        return sorted(p.name for p in tmp_path.iterdir())   # no temporary file is left

    assert generate_failing(_tiny_spec(seed=5)) == ["clips"]
    old = D.generate_synthetic_cohort(_tiny_spec(seed=5), tmp_path).read_text()
    assert generate_failing(_tiny_spec(seed=6, mci=6)) == ["clips", "manifest.csv"]
    assert (tmp_path / "manifest.csv").read_text() == old


def test_interrupted_generation_leaves_no_manifest_over_new_clips(tmp_path, monkeypatch):
    real_write = D.write_tensor_file

    def generate_failing(spec):
        written = []

        def disk_full_after_3_files(path, arr):
            if len(written) == 3:
                raise OSError(28, "No space left on device")
            written.append(path)
            real_write(path, arr)

        with monkeypatch.context() as m:
            m.setattr(D, "write_tensor_file", disk_full_after_3_files)
            with pytest.raises(OSError, match="No space left"):
                D.generate_synthetic_cohort(spec, tmp_path)
        assert not list(tmp_path.glob(".*"))   # no temporary directory is left

    generate_failing(_tiny_spec(seed=1, noise=0.1))
    with pytest.raises(D.DataError, match="no manifest at"):
        D.Cohort(tmp_path)
    old = D.Cohort(D.generate_synthetic_cohort(_tiny_spec(seed=1, noise=0.1), tmp_path))
    old_frames = [old.frames(i) for i in range(len(old))]
    generate_failing(_tiny_spec(seed=2, noise=0.1))
    cohort = D.Cohort(tmp_path)   # the seed-1 cohort, whole
    assert cohort.records == old.records
    for i, frames in enumerate(old_frames):
        np.testing.assert_array_equal(cohort.frames(i), frames)


def test_cohort_frames_reads_fresh_copy(tmp_path):
    manifest = D.generate_synthetic_cohort(_tiny_spec(noise=0.1), tmp_path)
    cohort = D.Cohort(manifest)
    on_disk = D.read_tensor_file(tmp_path / cohort.records[0].clip_path)
    cohort.frames(0)[...] = -1.0          # a caller edits its clip in place
    np.testing.assert_array_equal(cohort.frames(0), on_disk)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cohort_frames_refuses_non_finite_values(value, tmp_path):
    manifest = D.generate_synthetic_cohort(_tiny_spec(noise=0.1), tmp_path)
    cohort = D.Cohort(manifest)
    clip = tmp_path / cohort.records[1].clip_path
    frames = D.read_tensor_file(clip)
    frames[3, 2, 1, 0] = value
    D.write_tensor_file(clip, frames)
    assert D.read_tensor_shape(clip) == frames.shape   # the header pass cannot see it
    with pytest.raises(D.DataError, match=re.escape(f"{clip}: non-finite values")):
        cohort.frames(1)
    with pytest.raises(D.DataError, match=re.escape(f"{clip}: non-finite values")):
        D.read_tensor_file(clip)   # the one check, which frames and checkpoint loads share
    assert np.isfinite(cohort.frames(0)).all()


def test_cohort_subject_index_keeps_record_order(tmp_path):
    rows = [("b", 0, "MCI"), ("a", 0, "NC"), ("b", 1, "MCI"), ("a", 1, "NC"), ("b", 2, "MCI")]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("subject_id,clip_path,label,clip_index\n" + "".join(
        f"{s},clips/{s}_{k}.mcvv,{label},{k}\n" for s, k, label in rows))
    cohort = D.Cohort(manifest)
    assert len(cohort) == 5
    assert cohort.subject_ids() == ["b", "a"]
    assert cohort.clips_of("b") == [0, 2, 4] and cohort.clips_of("a") == [1, 3]
    assert cohort.clips_of("missing") == []
    assert cohort.subject_label("b") == D.LABEL_MCI and cohort.subject_label("a") == D.LABEL_NC
    with pytest.raises(KeyError):
        cohort.subject_label("missing")


def test_manifest_saved_with_a_byte_order_mark_reads_as_without(tmp_path):
    # spreadsheet programs save CSV as "UTF-8 with BOM"
    text = ("subject_id,clip_path,label,clip_index\n"
            "a,clips/a_0.mcvv,NC,0\nb,clips/b_0.mcvv,MCI,0\n")
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert D.Cohort(marked).records == D.Cohort(plain).records
    # a mark anywhere but at the start is still text, so the header lacks the name
    plain.write_text(text.replace(",clip_path", ",\ufeffclip_path"), encoding="utf-8")
    with pytest.raises(D.DataError, match="header lacks 'clip_path'"):
        D.Cohort(plain)


def test_manifest_unknown_label_names_manifest_line_and_label(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("subject_id,clip_path,label,clip_index\n"
                        "a,clips/a_0.mcvv,NC,0\n"
                        "b,clips/b_0.mcvv,XYZ,0\n")
    with pytest.raises(ValueError, match=re.escape(f"{manifest}, line 3: unknown label 'XYZ'")):
        D.Cohort(manifest)


def test_cohort_spec_validation():
    with pytest.raises(ValueError):
        _tiny_spec(rho=1.0).validate()
    with pytest.raises(ValueError):
        _tiny_spec(mci=0).validate()
    with pytest.raises(ValueError):
        _tiny_spec(frames_min=8).validate()
    with pytest.raises(ValueError, match="seed"):
        _tiny_spec(seed=-1).validate()
