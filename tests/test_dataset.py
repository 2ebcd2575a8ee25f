import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftelm import (DataError, SampleSet, ScalerParams, apply_scaler, encode_targets,
                      fit_scaler, load_batch, validate_corpus)
from driftelm import dataset
from driftelm.dataset import (EXPECTED_BATCH_TOTALS, EXPECTED_CLASS_COUNTS,
                              EXPECTED_GRAND_TOTAL, GAS_NAMES, _parse_lines)

from conftest import make_drift_corpus, save_batch


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


# Dense, in-order lines in the spellings batch files use: a line template
# and a value format.
DENSE_FORMS = {
    "label": ("{label} {pairs}\n", "{!r}"),
    "label;conc": ("{label};{conc:.6f} {pairs}\n", "{!r}"),
    "crlf-and-trailing-blank": ("{label} {pairs} \r\n", "{!r}"),
    "perfbench": ("{label} {pairs}\n", "{:.6f}"),  # "%d j:%.6f ..." in perfbench/synth.py
}


def dense_text(form, labels, rows):
    line, value = DENSE_FORMS[form]
    return "".join(
        line.format(label=label, conc=25.0 * label,
                    pairs=" ".join(f"{j}:{value.format(v)}" for j, v in enumerate(row, 1)))
        for label, row in zip(labels.tolist(), rows.tolist()))


class TestLoadBatch:
    def test_basic_parse(self, tmp_path):
        path = write_lines(tmp_path / "batch3.dat", [
            "1;10.000000 1:0.5 3:-2.25",
            "6 2:1.0",
        ])
        s = load_batch(path, batch_id=3, expected_n=4)
        assert s.batch_id == 3
        assert s.n_samples == 2 and s.n_features == 4
        np.testing.assert_array_equal(s.labels, [1, 6])
        np.testing.assert_array_equal(s.features,
                                      [[0.5, 0.0, -2.25, 0.0], [0.0, 1.0, 0.0, 0.0]])

    def test_concentration_token_discarded(self, tmp_path):
        path = write_lines(tmp_path / "b.dat", ["2;123.45 1:1.0"])
        s = load_batch(path, batch_id=1, expected_n=1)
        assert s.labels[0] == 2

    def test_missing_indices_default_zero(self, tmp_path):
        path = write_lines(tmp_path / "b.dat", ["4 5:9.0"])
        s = load_batch(path, batch_id=1, expected_n=8)
        assert s.features[0, 4] == 9.0
        assert np.count_nonzero(s.features) == 1

    def test_empty_file_errors(self, tmp_path):
        path = (tmp_path / "b.dat")
        path.write_text("")
        with pytest.raises(DataError, match="no samples"):
            load_batch(path, batch_id=1)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write_lines(tmp_path / "b.dat", ["1 1:0.5", "oops 1:0.5"])
        with pytest.raises(DataError, match=r":2:"):
            load_batch(path, batch_id=1, expected_n=2)

    def test_malformed_feature_token(self, tmp_path):
        path = write_lines(tmp_path / "b.dat", ["1 nocolon"])
        with pytest.raises(DataError, match="malformed feature token"):
            load_batch(path, batch_id=1, expected_n=2)

    def test_feature_index_beyond_expected(self, tmp_path):
        path = write_lines(tmp_path / "b.dat", ["1 9:0.5"])
        with pytest.raises(DataError, match="feature index 9"):
            load_batch(path, batch_id=1, expected_n=8)

    def test_class_id_out_of_range(self, tmp_path):
        path = write_lines(tmp_path / "b.dat", ["7 1:0.5"])
        with pytest.raises(DataError, match="class id 7"):
            load_batch(path, batch_id=1, expected_n=2)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(17, 9)) * 10.0 ** rng.integers(-8, 8, size=(17, 9))
        feats[rng.random(feats.shape) < 0.3] = 0.0
        feats[0, 0] = -0.0
        original = SampleSet(feats, rng.integers(1, 7, size=17), batch_id=4)
        path = tmp_path / "batch4.dat"
        save_batch(original, path)
        parsed = load_batch(path, batch_id=4, expected_n=9)
        assert parsed.features.tobytes() == original.features.tobytes()
        np.testing.assert_array_equal(parsed.labels, original.labels)
        assert parsed.batch_id == original.batch_id

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("lines", [["1 1:0.5 2:1.0", "2 1:{} 2:3.0"],
                                       ["1 2:1.0", "2 1:{}"]], ids=["dense", "sparse"])
    def test_non_finite_value_names_its_line(self, tmp_path, lines, value):
        path = write_lines(tmp_path / "b.dat", [line.format(value) for line in lines])
        with pytest.raises(DataError,
                           match=rf"b\.dat:2: non-finite feature value '1:{value}'"):
            load_batch(path, batch_id=1, expected_n=2)

    @pytest.mark.parametrize("form", sorted(DENSE_FORMS))
    def test_dense_forms_load_the_values_written(self, tmp_path, form):
        rng = np.random.default_rng(3)
        labels = rng.integers(1, 7, size=6)
        feats = rng.normal(scale=100.0, size=(6, 5))
        feats[0, 0] = -0.0
        path = tmp_path / "batch2.dat"
        path.write_bytes(dense_text(form, labels, feats).encode())
        if form == "perfbench":  # six decimals, read back as float() reads them
            feats = np.array([[float(f"{v:.6f}") for v in row] for row in feats.tolist()])
        got = load_batch(path, batch_id=2, expected_n=5)
        assert got.features.tobytes() == feats.tobytes()
        np.testing.assert_array_equal(got.labels, labels)

    def test_undecodable_file_is_data_error(self, tmp_path):
        path = tmp_path / "b.dat"
        path.write_bytes(b"1 1:0.5\n2 1:\xff\n")
        with pytest.raises(DataError, match=r"b\.dat: not UTF-8 text"):
            load_batch(path, batch_id=1, expected_n=1)


class ParserCalled(Exception):
    pass


def refuse_parsers(monkeypatch):
    def refuse(*args):
        raise ParserCalled
    monkeypatch.setattr(dataset, "_parse_lines", refuse)


def cache_files(root):
    return sorted(p for p in root.rglob("*") if p.is_file())


@pytest.fixture
def dense_batch(tmp_path):
    rng = np.random.default_rng(11)
    feats = rng.normal(scale=100.0, size=(7, 5))
    feats[0, 0] = -0.0
    path = tmp_path / "batch2.dat"
    path.write_bytes(dense_text("perfbench", rng.integers(1, 7, size=7), feats).encode())
    return path


class TestParseCache:
    @pytest.mark.parametrize("form", ["dense", "sparse", "copied"])
    def test_hit_equals_the_parse_without_parsing(self, tmp_path, dense_batch, monkeypatch,
                                                  isolated_cache, form):
        path = dense_batch
        if form == "sparse":
            path = write_lines(tmp_path / "batch3.dat", ["1;5.0 2:0.5", "6 1:-0.0 5:1e-300"])
        parsed = load_batch(path, batch_id=2, expected_n=5)
        assert len(cache_files(isolated_cache)) == 1
        if form == "copied":  # the same bytes in another directory hit the same entry
            path = tmp_path / "copy" / dense_batch.name
            path.parent.mkdir()
            path.write_bytes(dense_batch.read_bytes())
        refuse_parsers(monkeypatch)
        cached = load_batch(path, batch_id=7, expected_n=5)
        assert cached.features.tobytes() == parsed.features.tobytes()
        assert cached.labels.tobytes() == parsed.labels.tobytes()
        assert cached.features.dtype == np.float64 and cached.labels.dtype == np.int64
        assert cached.batch_id == 7 and not cached.features.flags.writeable
        assert len(cache_files(isolated_cache)) == 1

    def test_changed_bytes_or_width_parse_again(self, tmp_path, monkeypatch, isolated_cache):
        path = write_lines(tmp_path / "b.dat", ["1 1:0.5 2:1.0"])
        load_batch(path, batch_id=1, expected_n=2)
        write_lines(path, ["1 1:0.5 2:2.0"])
        assert load_batch(path, batch_id=1, expected_n=2).features.tolist() == [[0.5, 2.0]]
        assert load_batch(path, batch_id=1, expected_n=3).features.tolist() == [[0.5, 2.0, 0.0]]
        # one entry per (bytes, width): the stale entry stays until the size bound trims it
        assert len(cache_files(isolated_cache)) == 3
        refuse_parsers(monkeypatch)
        assert load_batch(path, batch_id=1, expected_n=2).features.tolist() == [[0.5, 2.0]]
        assert load_batch(path, batch_id=1, expected_n=3).features.tolist() == [[0.5, 2.0, 0.0]]
        write_lines(path, ["1 1:0.5 2:1.0"])
        assert load_batch(path, batch_id=1, expected_n=2).features.tolist() == [[0.5, 1.0]]
        assert len(cache_files(isolated_cache)) == 3

    def test_entry_is_keyed_by_the_bytes_parsed(self, tmp_path, monkeypatch, isolated_cache):
        path = write_lines(tmp_path / "b.dat", ["1 1:0.5"])
        original, swapped = path.read_bytes(), b"2 1:7.5\n"
        real = dataset._entry_path

        def rewrite_after_the_probe(chunks, expected_n):
            monkeypatch.setattr(dataset, "_entry_path", real)
            entry = real(chunks, expected_n)
            path.write_bytes(swapped)  # the file changes before it is parsed
            return entry
        monkeypatch.setattr(dataset, "_entry_path", rewrite_after_the_probe)
        assert load_batch(path, batch_id=1, expected_n=1).features.tolist() == [[7.5]]
        path.write_bytes(original)
        got = load_batch(path, batch_id=1, expected_n=1)
        assert got.features.tolist() == [[0.5]] and got.labels.tolist() == [1]
        assert len(cache_files(isolated_cache)) == 2
        refuse_parsers(monkeypatch)
        path.write_bytes(swapped)
        assert load_batch(path, batch_id=1, expected_n=1).features.tolist() == [[7.5]]

    def test_hit_keeps_the_arrays_it_reads(self, dense_batch, monkeypatch):
        load_batch(dense_batch, batch_id=2, expected_n=5)
        read, real = [], dataset._read_record

        def recorded(fh, dtype):
            read.append(real(fh, dtype))
            return read[-1]
        monkeypatch.setattr(dataset, "_read_record", recorded)
        hit = load_batch(dense_batch, batch_id=2, expected_n=5)
        assert len(read) == 2
        assert hit.features is read[0] and hit.labels is read[1]

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "pickle", "float32",
                                        "object", "nan", "fortran"])
    def test_damaged_entry_is_parsed_again_and_rewritten(self, dense_batch, monkeypatch,
                                                         isolated_cache, damage):
        want = load_batch(dense_batch, batch_id=2, expected_n=5)
        (entry,) = cache_files(isolated_cache)
        good = entry.read_bytes()
        features, labels = want.features, want.labels
        if damage == "truncated":
            entry.write_bytes(good[: len(good) // 2])
        elif damage == "garbage":
            entry.write_bytes(b"\x93NUMPY" + bytes(range(256)) * 4)
        elif damage == "empty":
            entry.write_bytes(b"")
        elif damage == "pickle":
            entry.write_bytes(b"\x80\x04N.")
        else:
            if damage == "float32":
                features = features.astype(np.float32)
            elif damage == "object":
                features = features.astype(object)
            elif damage == "fortran":  # the right values, in an order no entry is written in
                features = np.asfortranarray(features)
            else:
                features = np.full_like(features, np.nan)
            with open(entry, "wb") as fh:
                for arr in (features, labels):
                    np.save(fh, arr)
        got = load_batch(dense_batch, batch_id=2, expected_n=5)
        assert got.features.tobytes() == want.features.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)
        refuse_parsers(monkeypatch)
        assert load_batch(dense_batch, batch_id=2, expected_n=5).features.tobytes() == \
            want.features.tobytes()

    def test_oldest_entries_beyond_the_size_bound_are_removed(self, tmp_path, monkeypatch,
                                                              isolated_cache):
        paths = [write_lines(tmp_path / f"b{i}.dat", [f"1 1:{i}.5"]) for i in range(4)]
        for i, path in enumerate(paths):
            load_batch(path, batch_id=1, expected_n=1)
            entry = dataset._entry_path([path.read_bytes()], 1)
            os.utime(entry, ns=(i, i))  # distinct write times, oldest first
            if i == 0:  # room for two entries of this size
                monkeypatch.setattr(dataset, "_CACHE_MAX_BYTES", 2 * entry.stat().st_size)
        entries = {dataset._entry_path([p.read_bytes()], 1) for p in paths[2:]}
        assert set(cache_files(isolated_cache)) == entries

    @pytest.mark.parametrize("root", ["a-file", "no-home"])
    def test_unusable_cache_root_still_loads(self, tmp_path, dense_batch, monkeypatch,
                                             root):
        if root == "a-file":
            blocker = tmp_path / "blocker"
            blocker.write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        else:
            def no_home(cls):
                raise RuntimeError("Could not determine home directory.")
            monkeypatch.delenv("XDG_CACHE_HOME")
            monkeypatch.setattr(dataset.Path, "home", classmethod(no_home))
        first = load_batch(dense_batch, batch_id=2, expected_n=5)
        second = load_batch(dense_batch, batch_id=2, expected_n=5)
        assert first.features.tobytes() == second.features.tobytes()

    def test_relative_xdg_cache_home_falls_back_to_home(self, tmp_path, dense_batch,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        load_batch(dense_batch, batch_id=2, expected_n=5)
        assert not (tmp_path / "relative").exists()
        assert len(cache_files(tmp_path / "home" / ".cache" / "driftelm")) == 1

    @pytest.mark.parametrize("lines", [["1 1:0.5", "oops 1:0.5"], ["1 1:nan"], ["9 1:0.5"]])
    def test_malformed_file_raises_as_before_and_leaves_no_entry(self, tmp_path,
                                                                 isolated_cache, lines):
        path = write_lines(tmp_path / "b.dat", lines)
        with pytest.raises(DataError) as want:
            _parse_lines(path.read_bytes(), path, 2)
        with pytest.raises(DataError) as got:
            load_batch(path, batch_id=1, expected_n=2)
        assert str(got.value) == str(want.value)
        assert cache_files(isolated_cache) == []


class TestWriteAtomic:
    @pytest.mark.parametrize("content", ["text é\n", b"\x00\xffbytes"])
    def test_writes_text_and_bytes(self, tmp_path, content):
        path = tmp_path / "out"
        dataset.write_atomic(path, content)
        want = content.encode() if isinstance(content, str) else content
        assert path.read_bytes() == want
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_mode_is_that_of_a_plain_write(self, tmp_path):
        plain, atomic = tmp_path / "plain", tmp_path / "atomic"
        umask = os.umask(0o027)
        try:
            plain.write_text("x")
            dataset.write_atomic(atomic, "x")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(atomic.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert stat.S_IMODE(atomic.stat().st_mode) == 0o640
        atomic.chmod(0o604)  # an existing file keeps its mode
        dataset.write_atomic(atomic, "y")
        assert stat.S_IMODE(atomic.stat().st_mode) == 0o604

    @pytest.mark.parametrize("target, error", [("missing/m.json", FileNotFoundError),
                                               ("a-directory", IsADirectoryError)])
    def test_error_names_the_target_and_leaves_no_temporary_file(self, tmp_path, target,
                                                                 error):
        (tmp_path / "a-directory").mkdir()
        path = tmp_path / target
        with pytest.raises(error) as exc:
            dataset.write_atomic(path, "x")
        assert exc.value.filename == str(path)
        assert type(exc.value.__cause__) is error and exc.value.__cause__.filename != str(path)
        assert str(exc.value).endswith(f": '{path}'")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory"]
        assert list((tmp_path / "a-directory").iterdir()) == []


class TestSampleSet:
    def test_rejects_nan(self):
        with pytest.raises(DataError, match="NaN"):
            SampleSet(np.array([[np.nan]]), [1])
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError, match="NaN or Inf"):
                SampleSet(np.array([[0.5, 1.0], [value, -2.0]]), [1, 2])

    def test_rejects_bad_labels(self):
        for labels in ([1, 7], [0, 1]):
            with pytest.raises(DataError, match="1..6"):
                SampleSet(np.ones((2, 2)), labels)
        with pytest.raises(DataError, match="one class id per sample"):
            SampleSet(np.ones((2, 2)), [1, 2, 3])
        for labels in ([1.9, 2.5], [1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(DataError, match="whole numbers"):
                SampleSet(np.ones((2, 3)), labels)
        assert SampleSet(np.ones((2, 3)), [1.0, 6.0]).labels.tolist() == [1, 6]

    def test_writable_input_is_copied(self):
        feats, labels = np.ones((2, 3)), np.array([1, 2])
        s = SampleSet(feats, labels)
        feats[0, 0], labels[0] = 5.0, 6
        assert s.features[0, 0] == 1.0 and s.labels[0] == 1
        assert not np.shares_memory(s.features, feats)

    def test_read_only_view_of_a_writable_base_is_copied(self):
        base = np.ones((4, 3))
        view = base[:2]
        view.flags.writeable = False
        s = SampleSet(view, [1, 2])
        assert not np.shares_memory(s.features, base)
        base[0, 0] = 5.0
        assert s.features[0, 0] == 1.0

    def test_read_only_array_of_its_own_is_kept(self):
        feats, labels = np.ones((2, 3)), np.array([1, 2])
        feats.flags.writeable = labels.flags.writeable = False
        s = SampleSet(feats, labels)
        assert s.features is feats and s.labels is labels
        for other in (feats.astype(np.float32), np.asfortranarray(np.ones((3, 2)))[:2]):
            other.flags.writeable = False
            assert SampleSet(other, [1, 2]).features is not other

    def test_immutable(self):
        s = SampleSet(np.ones((2, 2)), [1, 2])
        with pytest.raises(ValueError):
            s.features[0, 0] = 3.0

    def test_take_keeps_labels(self):
        s = SampleSet(np.arange(6.0).reshape(3, 2), [1, 2, 3])
        sub = s.take([2, 0])
        np.testing.assert_array_equal(sub.labels, [3, 1])
        np.testing.assert_array_equal(sub.features, [[4.0, 5.0], [0.0, 1.0]])


def allocation_peak(call):
    """``call()``'s result and the most bytes it had allocated at once, as
    tracemalloc counts them. A first, untraced call leaves out what only a
    first call allocates, so the figure does not depend on the tests run before."""
    call()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Bytes beyond the result's arrays that a load or a take may allocate at its
# peak: headers, Python objects, the chunks of a file being hashed; never a
# second copy of the batch (the parse, or the file's bytes, held at once).
PEAK_SLACK = 128 * 2**10


class TestMemory:
    def test_cache_hit_holds_one_copy_of_the_batch(self, tmp_path):
        rng = np.random.default_rng(2)
        feats = rng.normal(scale=100.0, size=(1200, 32))
        path = tmp_path / "batch6.dat"
        path.write_bytes(dense_text("perfbench", rng.integers(1, 7, size=1200), feats).encode())
        assert path.stat().st_size > 6 * dataset._HASH_CHUNK
        load_batch(path, batch_id=6, expected_n=32)  # writes the entry
        hit, peak = allocation_peak(lambda: load_batch(path, batch_id=6, expected_n=32))
        assert hit.features.shape == (1200, 32)
        assert peak <= hit.features.nbytes + hit.labels.nbytes + PEAK_SLACK

    def test_take_builds_its_rows_once(self):
        rng = np.random.default_rng(4)
        s = SampleSet(rng.normal(size=(2000, 64)), rng.integers(1, 7, size=2000))
        idx = np.arange(0, 2000, 2)
        sub, peak = allocation_peak(lambda: s.take(idx))
        assert peak <= sub.features.nbytes + sub.labels.nbytes + PEAK_SLACK


class TestValidateCorpus:
    def make_counted_corpus(self):
        rng = np.random.default_rng(0)
        batches = []
        for bid, by_gas in EXPECTED_CLASS_COUNTS.items():
            labels = np.concatenate([
                np.full(by_gas[gas], class_id)
                for class_id, gas in enumerate(GAS_NAMES, start=1) if by_gas[gas]
            ])
            feats = rng.normal(size=(labels.size, 3))
            batches.append(SampleSet(feats, labels, batch_id=bid))
        return batches

    def test_matching_corpus_is_ok(self):
        report = validate_corpus(self.make_counted_corpus())
        assert report.ok
        assert report.total == EXPECTED_GRAND_TOTAL
        assert "status=ok" in report.to_text()
        assert "total=13910" in report.to_text()

    def test_wrong_class_count_flagged(self):
        batches = self.make_counted_corpus()
        bad = batches[2]  # batch 3 has no toluene; relabel one sample to it
        labels = bad.labels.copy()
        labels[0] = 6
        batches[2] = SampleSet(bad.features, labels, batch_id=3)
        report = validate_corpus(batches)
        assert not report.ok
        assert any("batch 3 toluene" in m for m in report.mismatches)

    def test_missing_batch_flagged(self):
        batches = self.make_counted_corpus()[:9]
        report = validate_corpus(batches)
        assert not report.ok
        assert any("missing batch 10" in m for m in report.mismatches)

    def test_wrong_total_flagged(self):
        batches = self.make_counted_corpus()
        extra = SampleSet(np.zeros((EXPECTED_BATCH_TOTALS[4] + 1, 3)),
                          np.ones(EXPECTED_BATCH_TOTALS[4] + 1, dtype=int), batch_id=4)
        batches[3] = extra
        report = validate_corpus(batches)
        assert any("batch 4 total" in m for m in report.mismatches)


class TestScaler:
    def test_singleton(self):
        s = SampleSet(np.array([[1.5, -2.0]]), [1])
        scaler = fit_scaler([s])
        np.testing.assert_array_equal(scaler.minimum, [1.5, -2.0])
        np.testing.assert_array_equal(scaler.maximum, [1.5, -2.0])
        assert scaler.constant_mask.sum() == 2

    def test_two_sample_extremes(self):
        s = SampleSet(np.array([[0.0, 1.0], [2.0, 1.0]]), [1, 2])
        scaler = fit_scaler([s])
        np.testing.assert_array_equal(scaler.minimum, [0.0, 1.0])
        np.testing.assert_array_equal(scaler.maximum, [2.0, 1.0])

    def test_endpoints_and_midpoint(self):
        s = SampleSet(np.array([[0.0], [1.0], [2.0]]), [1, 2, 1])
        scaled = apply_scaler(fit_scaler([s]), s.features)
        np.testing.assert_allclose(scaled[:, 0], [-1.0, 0.0, 1.0])

    def test_constant_feature_maps_to_zero(self):
        s = SampleSet(np.full((4, 2), 3.0), [1, 2, 1, 2])
        scaled = apply_scaler(fit_scaler([s]), s.features)
        assert np.all(scaled == 0.0)

    def test_corpus_scaled_into_unit_interval(self, drift_corpus):
        scaler = fit_scaler(drift_corpus)
        for batch in drift_corpus:
            scaled = apply_scaler(scaler, batch.features)
            assert scaled.min() >= -1.0 and scaled.max() <= 1.0
            assert scaled.flags.c_contiguous and not scaled.flags.writeable
        assert scaler.constant_mask.sum() == 0

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 30), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_scaled_range_property(self, seed, n_samples, n_features):
        rng = np.random.default_rng(seed)
        feats = rng.normal(scale=10.0, size=(n_samples, n_features))
        s = SampleSet(feats, np.ones(n_samples, dtype=int))
        scaled = apply_scaler(fit_scaler([s]), s.features)
        assert scaled.min() >= -1.0 and scaled.max() <= 1.0

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_refused(self):
        # the span 2e308 overflows to inf, so the extremes scale to NaN; the
        # DataError is all the caller gets, with no numpy warning before it
        s = SampleSet(np.array([[1e308, 0.0], [-1e308, 1.0]]), [1, 2])
        with pytest.raises(DataError, match="NaN or Inf"):
            apply_scaler(fit_scaler([s]), s.features)

    def test_non_finite_or_misshapen_features_are_refused(self):
        scaler = ScalerParams([0.0, 0.0], [1.0, 0.0])  # the second feature is constant
        for bad in ([[np.nan, 0.5]], [[0.5, np.inf]]):
            with pytest.raises(DataError, match="NaN or Inf"):
                apply_scaler(scaler, bad)
        for bad in ([0.5, 0.5], [[0.5, 0.5, 0.5]]):
            with pytest.raises(DataError, match="dimension"):
                apply_scaler(scaler, bad)


class TestEncodeTargets:
    def test_first_class(self):
        np.testing.assert_array_equal(encode_targets([1], 6)[0],
                                      [1, -1, -1, -1, -1, -1])

    def test_last_class(self):
        np.testing.assert_array_equal(encode_targets([6], 6)[0],
                                      [-1, -1, -1, -1, -1, 1])

    def test_single_class(self):
        np.testing.assert_array_equal(encode_targets([1, 1], 1), [[1.0], [1.0]])

    def test_out_of_range_label(self):
        with pytest.raises(DataError):
            encode_targets([0], 6)

    def test_fractional_label(self):
        for labels in ([1.9], [np.nan]):
            with pytest.raises(DataError, match="whole numbers"):
                encode_targets(labels, 6)
        np.testing.assert_array_equal(encode_targets([2.0], 6), encode_targets([2], 6))

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=50), st.integers(9, 12))
    @settings(max_examples=50, deadline=None)
    def test_argmax_round_trip(self, labels, m):
        encoded = encode_targets(labels, m)
        assert np.all(np.sum(encoded == 1.0, axis=1) == 1)
        np.testing.assert_array_equal(np.argmax(encoded, axis=1) + 1, labels)


def make_synthetic_drift(classes: int, per_class: int, shift: float, seed: int,
                         n_features: int = 8) -> tuple[SampleSet, SampleSet]:
    """Gaussian class blobs plus a translated copy, mimicking sensor drift.

    The target set is drawn from the same blobs translated by ``shift`` along
    a fixed direction (the normalized all-ones diagonal, so the drift touches
    every feature). Deterministic for a given seed.
    """
    if classes < 2:
        raise DataError("need at least 2 classes")
    if per_class < 1:
        raise DataError("need at least 1 sample per class")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4.0, 4.0, size=(classes, n_features))
    labels = np.repeat(np.arange(1, classes + 1), per_class)
    direction = np.full(n_features, 1.0 / np.sqrt(n_features))

    def draw(offset):
        noise = rng.normal(0.0, 0.5, size=(labels.size, n_features))
        return centers[labels - 1] + noise + offset

    source = SampleSet(draw(0.0), labels, batch_id=1)
    target = SampleSet(draw(shift * direction), labels, batch_id=2)
    return source, target


class TestSyntheticDrift:
    def test_deterministic(self):
        a = make_synthetic_drift(3, 5, 2.0, seed=42)
        b = make_synthetic_drift(3, 5, 2.0, seed=42)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].features, b[1].features)

    def test_zero_shift_matches_distribution(self):
        source, target = make_synthetic_drift(3, 200, 0.0, seed=1)
        # same blobs: per-class means agree to within sampling noise
        for c in range(1, 4):
            mu_s = source.features[source.labels == c].mean(axis=0)
            mu_t = target.features[target.labels == c].mean(axis=0)
            assert np.abs(mu_s - mu_t).max() < 0.25

    def test_shift_displaces_by_requested_amount(self):
        source, target = make_synthetic_drift(2, 100, 5.0, seed=3)
        delta = target.features.mean(axis=0) - source.features.mean(axis=0)
        # diagonal direction: every axis moves by shift/sqrt(n)
        np.testing.assert_allclose(delta, 5.0 / np.sqrt(8), atol=0.3)
        assert np.linalg.norm(delta) == pytest.approx(5.0, abs=0.3)

    def test_shift_degrades_source_trained_classifier(self):
        from driftelm import (Classifier, accuracy, hidden_output,
                              new_feature_map, predict, train_elm)
        source, target = make_synthetic_drift(4, 50, 5.0, seed=9)
        scaler = fit_scaler([source, target])
        s, t = apply_scaler(scaler, source.features), apply_scaler(scaler, target.features)
        fmap = new_feature_map(80, 8, "radbas", seed=1)
        beta = train_elm(hidden_output(fmap, s), encode_targets(source.labels, 4), 1.0)
        clf = Classifier(fmap, beta)
        acc_source = accuracy(predict(clf, s)[1], source.labels)
        acc_target = accuracy(predict(clf, t)[1], target.labels)
        assert acc_target < acc_source - 0.03

    def test_validation(self):
        with pytest.raises(DataError):
            make_synthetic_drift(1, 5, 0.0, seed=0)
        with pytest.raises(DataError):
            make_synthetic_drift(2, 0, 0.0, seed=0)
