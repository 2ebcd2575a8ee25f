"""Gas-sensor drift corpus handling.

Loads the libsvm-style ``batch1.dat`` .. ``batch10.dat`` files, each as a
``SampleSet``: its features, one class id in 1..N_CLASSES per sample, and
the batch id its caller names; each file is parsed line by line, and its
arrays are cached by content. Checks batches against the reference
per-batch composition, scales features to [-1, 1], and encodes class labels
as +/-1 target rows.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_FEATURES = 128
N_CLASSES = 6

# Gas name for each class id used in the batch files (id 1 first).
GAS_NAMES = ("ethanol", "ethylene", "ammonia", "acetaldehyde", "acetone", "toluene")

# Reference composition of the official 10-batch corpus, keyed by gas name.
EXPECTED_CLASS_COUNTS = {
    1: {"acetone": 90, "acetaldehyde": 98, "ethanol": 83, "ethylene": 30, "ammonia": 70, "toluene": 74},
    2: {"acetone": 164, "acetaldehyde": 334, "ethanol": 100, "ethylene": 109, "ammonia": 532, "toluene": 5},
    3: {"acetone": 365, "acetaldehyde": 490, "ethanol": 216, "ethylene": 240, "ammonia": 275, "toluene": 0},
    4: {"acetone": 64, "acetaldehyde": 43, "ethanol": 12, "ethylene": 30, "ammonia": 12, "toluene": 0},
    5: {"acetone": 28, "acetaldehyde": 40, "ethanol": 20, "ethylene": 46, "ammonia": 63, "toluene": 0},
    6: {"acetone": 514, "acetaldehyde": 574, "ethanol": 110, "ethylene": 29, "ammonia": 606, "toluene": 467},
    7: {"acetone": 649, "acetaldehyde": 662, "ethanol": 360, "ethylene": 744, "ammonia": 630, "toluene": 568},
    8: {"acetone": 30, "acetaldehyde": 30, "ethanol": 40, "ethylene": 33, "ammonia": 143, "toluene": 18},
    9: {"acetone": 61, "acetaldehyde": 55, "ethanol": 100, "ethylene": 75, "ammonia": 78, "toluene": 101},
    10: {"acetone": 600, "acetaldehyde": 600, "ethanol": 600, "ethylene": 600, "ammonia": 600, "toluene": 600},
}
EXPECTED_BATCH_TOTALS = {b: sum(c.values()) for b, c in EXPECTED_CLASS_COUNTS.items()}
EXPECTED_GRAND_TOTAL = 13910

BATCH_IDS = tuple(range(1, 11))


class DataError(ValueError):
    """Unreadable, malformed, or out-of-contract input data."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _kept(arr, dtype) -> np.ndarray:
    """``arr`` itself if it is a read-only, C-ordered ``dtype`` array that owns
    its memory, so that nothing else can write to it; else a read-only copy."""
    if (type(arr) is np.ndarray and arr.dtype == dtype and arr.flags.c_contiguous
            and arr.flags.owndata and not arr.flags.writeable):
        return arr
    return _readonly(np.array(arr, dtype=dtype, order="C"))


def _whole(labels) -> np.ndarray:
    """``labels`` as int64, not copied if they are int64 already; a DataError
    if any is not a whole number, where a cast would truncate it."""
    raw = np.asarray(labels)
    with np.errstate(invalid="ignore"):  # NaN and Inf cast to garbage, refused below
        ids = raw.astype(np.int64, copy=False)
    if ids is not raw and not np.array_equal(ids, raw):
        raise DataError("labels must be whole numbers")
    return ids


@dataclass(frozen=True, eq=False)
class SampleSet:
    """An immutable, unscaled batch of labeled samples, as loaded or split.

    features : (N, n) float matrix, finite.
    labels   : (N,) vector of 1-based class ids in 1..N_CLASSES.
    batch_id : which corpus batch the samples came from (0 for synthetic).

    Both arrays are read-only. An array that is already read-only, C-ordered,
    of the right dtype (float64, int64) and owns its memory is kept as it is,
    as a load or ``take`` hands it over; anything else, a writable array or a
    view included, is copied, so a later write by the caller cannot reach it.
    Labels that are not whole numbers are refused, not truncated.
    """

    features: np.ndarray
    labels: np.ndarray
    batch_id: int = 0

    def __post_init__(self):
        feats = _kept(self.features, np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError("features must be a non-empty 2-D matrix")
        if not (np.isfinite(feats.min()) and np.isfinite(feats.max())):  # NaN reaches both
            raise DataError("features contain NaN or Inf")
        labels = _kept(_whole(self.labels), np.int64)
        if labels.shape != (feats.shape[0],):
            raise DataError("labels must be one class id per sample")
        if labels.min() < 1 or labels.max() > N_CLASSES:
            raise DataError(f"labels must lie in 1..{N_CLASSES}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "SampleSet":
        """Row subset (copy)."""
        idx = np.asarray(indices, dtype=np.int64)
        return SampleSet(_readonly(self.features[idx]), _readonly(self.labels[idx]),
                         self.batch_id)


def load_batch(path, batch_id: int, expected_n: int = N_FEATURES) -> SampleSet:
    """Parse one libsvm-style batch file as batch ``batch_id``.

    Lines are ``<class>[;<concentration>] <idx>:<value> ...`` with class ids
    in 1..N_CLASSES and 1-based feature indices; the concentration token is
    discarded, absent indices default to 0 and a repeated index keeps its
    last value. The file is parsed line by line, as UTF-8. Errors, including
    undecodable bytes and non-finite values, raise ``DataError`` naming the
    file and, where there is one, the line.

    The parsed arrays are cached by content (``_entry_path``): a later load
    of the same bytes, from any path, reads them back instead of parsing.
    The key is hashed from the file in chunks, so a hit never holds the
    file's bytes and the batch it returns holds the only copy of its arrays.
    A miss reads the file whole and keys its entry by the bytes it parsed.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            entry = _entry_path(iter(functools.partial(fh.read, _HASH_CHUNK), b""), expected_n)
            cached = None if entry is None else _read_entry(entry, expected_n, batch_id)
            if cached is not None:
                return cached
            fh.seek(0)
            data = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    samples = SampleSet(*_parse_lines(data, path, expected_n), batch_id)
    if entry is not None:  # the file may have changed since it was hashed
        _write_entry(_entry_path([data], expected_n), samples)
    return samples


# Bytes of a file read and hashed at a time.
_HASH_CHUNK = 2**16


@functools.cache
def _parser_digest() -> bytes:
    """Names the parser: this module's source and the Python and numpy it runs on."""
    versions = f"{sys.version}\0{np.__version__}".encode()
    return hashlib.sha256(Path(__file__).read_bytes() + versions).digest()


def _entry_path(chunks, expected_n: int) -> Path | None:
    """Where the parse of a file's bytes, given as ``chunks`` in order, is
    cached: a file named by its key.

    Entries live in ``$XDG_CACHE_HOME/driftelm`` (else ``~/.cache/driftelm``).
    The key is a sha256 over the parser, ``expected_n`` and the bytes; an
    entry no load names any more ages out through the size bound. None when
    there is no home directory or the module's source cannot be read; then
    no chunk is read.
    """
    root = os.environ.get("XDG_CACHE_HOME", "")
    try:
        base = Path(root) if os.path.isabs(root) else Path.home() / ".cache"
        key = hashlib.sha256(_parser_digest() + b"%d\0" % expected_n)
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    for chunk in chunks:
        key.update(chunk)
    return base / "driftelm" / f"{key.hexdigest()}.npy"


def _read_entry(entry: Path, expected_n: int, batch_id: int) -> SampleSet | None:
    """The batch a cache entry holds; None for a missing or damaged one.

    An entry is two ``.npy`` records in a row: the features and the labels.
    Each is read straight into an array of its own, which the batch keeps.
    """
    try:
        with open(entry, "rb") as fh:
            features = _read_record(fh, np.float64)
            labels = _read_record(fh, np.int64)
        if (features.ndim == 2 and features.shape[1] == expected_n
                and labels.shape == features.shape[:1]):
            return SampleSet(features, labels, batch_id)
    except Exception:  # any failure to read an entry means: parse the file
        pass
    return None


def _read_record(fh, dtype) -> np.ndarray:
    """The next ``.npy`` record of ``fh`` as a read-only array that owns its
    memory; ValueError unless it is a whole, C-ordered version 1.0 record of
    ``dtype``, as ``np.save`` writes one."""
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not a version 1.0 record")
    shape, fortran_order, got = np.lib.format.read_array_header_1_0(fh)
    if fortran_order or got != dtype:
        raise ValueError(f"not a C-ordered {np.dtype(dtype)} record")
    arr = np.empty(shape, dtype)
    if fh.readinto(arr) != arr.nbytes:
        raise ValueError("truncated record")
    return _readonly(arr)


# Entries beyond this many bytes, oldest written first, are removed.
_CACHE_MAX_BYTES = 128 * 2**20


def _write_entry(entry: Path, samples: SampleSet) -> None:
    """Store a parse as its entry and trim the cache, best effort: a failed write is ignored."""
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        buf = io.BytesIO()
        for arr in (samples.features, samples.labels):
            np.save(buf, arr, allow_pickle=False)
        content = buf.getvalue()
        write_atomic(entry, content)
        entries = []
        for e in os.scandir(entry.parent):
            if e.name.endswith(".npy") and e.path != str(entry):
                st = e.stat()
                entries.append((st.st_mtime_ns, st.st_size, e.path))
        total = len(content)
        for _, size, name in sorted(entries, reverse=True):  # newest first
            total += size
            if total > _CACHE_MAX_BYTES:
                os.unlink(name)
    except OSError:
        pass


def utf8_text(data: bytes, path) -> str:
    """The bytes of the file ``path`` as UTF-8 text; undecodable bytes are a
    DataError naming the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _parse_lines(data: bytes, path: Path, expected_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of a batch file's bytes, one line at a time, as
    read-only arrays for a ``SampleSet`` to keep."""
    rows: list[np.ndarray] = []
    labels: list[int] = []
    for lineno, line in enumerate(utf8_text(data, path).splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0].split(";", 1)[0]
        try:
            label = int(head)
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed label token {tokens[0]!r}") from None
        if not 1 <= label <= N_CLASSES:
            raise DataError(f"{path}:{lineno}: class id {label} outside 1..{N_CLASSES}")
        vec = np.zeros(expected_n)
        for tok in tokens[1:]:
            idx_str, sep, val_str = tok.partition(":")
            if not sep:
                raise DataError(f"{path}:{lineno}: malformed feature token {tok!r}")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed feature token {tok!r}") from None
            if not 1 <= idx <= expected_n:
                raise DataError(f"{path}:{lineno}: feature index {idx} outside 1..{expected_n}")
            if not math.isfinite(val):
                raise DataError(f"{path}:{lineno}: non-finite feature value {tok!r}")
            vec[idx - 1] = val
        rows.append(vec)
        labels.append(label)
    if not rows:
        raise DataError(f"{path}: no samples")
    return _readonly(np.vstack(rows)), _readonly(np.array(labels, dtype=np.int64))


def write_atomic(path, content: str | bytes) -> None:
    """Write ``content`` to ``path`` through a temporary file and a rename.

    Text is written as UTF-8, with the mode ``open(path, "w")`` gives: an
    existing file's own, or 0o666 less the umask. An ``OSError`` names
    ``path``, not the temporary file; it has the original's type and errno,
    and the original as its cause.
    """
    path = Path(path)
    if isinstance(content, str):
        content = content.encode()
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(content)
        umask = os.umask(0o077)  # read by setting it, and put back at once
        os.umask(umask)
        os.chmod(tmp, path.stat().st_mode & 0o777 if path.is_file() else 0o666 & ~umask)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        if exc.errno is None:  # not an OS error, so no file to name
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def load_corpus(data_dir, expected_n: int = N_FEATURES,
                allow_missing: bool = False) -> list[SampleSet]:
    """Load ``batch1.dat`` .. ``batch10.dat`` from a directory."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory not found: {data_dir}")
    batches = []
    for bid in BATCH_IDS:
        path = data_dir / f"batch{bid}.dat"
        if not path.is_file():
            if allow_missing:
                continue
            raise DataError(f"missing batch file: {path}")
        batches.append(load_batch(path, expected_n=expected_n, batch_id=bid))
    return batches


@dataclass
class ValidationReport:
    """Outcome of checking a corpus against the reference composition."""

    lines: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    total: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_text(self) -> str:
        out = list(self.lines)
        out.append(f"total={self.total}")
        out.append(f"expected_total={EXPECTED_GRAND_TOTAL}")
        for msg in self.mismatches:
            out.append(f"mismatch={msg}")
        out.append(f"mismatches={len(self.mismatches)}")
        out.append(f"status={'ok' if self.ok else 'mismatch'}")
        return "\n".join(out)


def validate_corpus(batches: list[SampleSet]) -> ValidationReport:
    """Check per-batch totals and per-class counts against the reference table.

    Failures are collected in the report, never raised.
    """
    report = ValidationReport()
    by_id: dict[int, SampleSet] = {}
    for s in batches:
        if s.batch_id in by_id:
            report.mismatches.append(f"duplicate batch {s.batch_id}")
        by_id[s.batch_id] = s
    for bid in BATCH_IDS:
        expected = EXPECTED_CLASS_COUNTS[bid]
        if bid not in by_id:
            report.lines.append(f"batch={bid} status=missing")
            report.mismatches.append(f"missing batch {bid}")
            continue
        s = by_id[bid]
        report.total += s.n_samples
        ok = s.n_samples == EXPECTED_BATCH_TOTALS[bid]
        report.lines.append(
            f"batch={bid} total={s.n_samples} expected={EXPECTED_BATCH_TOTALS[bid]} "
            f"status={'ok' if ok else 'mismatch'}")
        if not ok:
            report.mismatches.append(
                f"batch {bid} total: {s.n_samples} expected {EXPECTED_BATCH_TOTALS[bid]}")
        counts = np.bincount(s.labels, minlength=N_CLASSES + 1)
        for class_id, gas in enumerate(GAS_NAMES, start=1):
            got = int(counts[class_id])
            want = expected[gas]
            ok = got == want
            report.lines.append(
                f"batch={bid} gas={gas} class={class_id} count={got} expected={want} "
                f"status={'ok' if ok else 'mismatch'}")
            if not ok:
                report.mismatches.append(f"batch {bid} {gas}: count {got} expected {want}")
    if report.total != EXPECTED_GRAND_TOTAL:
        report.mismatches.append(
            f"grand total: {report.total} expected {EXPECTED_GRAND_TOTAL}")
    return report


@dataclass(frozen=True, eq=False)
class ScalerParams:
    """Per-feature min/max for the [-1, 1] scaling."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        lo = np.array(self.minimum, dtype=np.float64)
        hi = np.array(self.maximum, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DataError("scaler min/max must be matching 1-D vectors")
        if np.any(lo > hi):
            raise DataError("scaler has min > max")
        object.__setattr__(self, "minimum", _readonly(lo))
        object.__setattr__(self, "maximum", _readonly(hi))

    @property
    def constant_mask(self) -> np.ndarray:
        """Features with min == max; these scale to 0."""
        return self.minimum == self.maximum


def fit_scaler(batches: list[SampleSet]) -> ScalerParams:
    """Per-feature min/max over the union of the given batches."""
    if not batches:
        raise DataError("fit_scaler needs at least one batch")
    lo = np.min([b.features.min(axis=0) for b in batches], axis=0)
    hi = np.max([b.features.max(axis=0) for b in batches], axis=0)
    return ScalerParams(lo, hi)


def apply_scaler(scaler: ScalerParams, features) -> np.ndarray:
    """Each value mapped by 2*(v - min)/(max - min) - 1, constant features to 0,
    as a read-only C-ordered matrix; DataError on NaN, Inf or an overflow."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != scaler.minimum.shape[0]:
        raise DataError("scaler dimension does not match samples")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        safe = np.where(scaler.maximum > scaler.minimum, scaler.maximum - scaler.minimum, 1.0)
        scaled = np.subtract(features, scaler.minimum, order="C")
        scaled *= 2.0
        scaled /= safe
        scaled -= 1.0
    if not np.isfinite(scaled).all():
        raise DataError("features contain NaN or Inf")
    scaled[:, scaler.constant_mask] = 0.0
    return _readonly(scaled)


def encode_targets(labels, m: int) -> np.ndarray:
    """One-vs-rest target rows: +1 in the label's column, -1 elsewhere."""
    labels = _whole(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise DataError("labels must be a non-empty vector")
    if labels.min() < 1 or labels.max() > m:
        raise DataError(f"labels must lie in 1..{m}")
    targets = -np.ones((labels.size, m))
    targets[np.arange(labels.size), labels - 1] = 1.0
    return targets

