import hashlib
import inspect
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import robustgd
from robustgd.data import (
    _SLAB_ROWS,
    SPAMBASE_FEATURES,
    SPAMBASE_ROWS,
    SPAMBASE_SPAM_ROWS,
    Dataset,
    ShardedData,
    load_spambase,
    split_and_shard,
    standardize,
    stratified_split,
    synthetic_spambase_like,
)
from robustgd.errors import ConfigError, DataFormatError
from robustgd.experiments import ExperimentConfig, prepare_data


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


def spam_row(label, fill=0.5):
    return [fill] * SPAMBASE_FEATURES + [label]


@pytest.fixture(scope="module")
def full_size_csv(tmp_path_factory):
    """The stand-in corpus as a spambase CSV at full float precision: (path, dataset)."""
    ds = synthetic_spambase_like(seed=0)
    path = tmp_path_factory.mktemp("spambase") / "full.csv"
    write_csv(path, [list(ds.features[i]) + [int(ds.labels[i])] for i in range(SPAMBASE_ROWS)])
    return path, ds


class TestLoad:
    def test_small_valid_file(self, tmp_path):
        path = tmp_path / "mini.csv"
        write_csv(path, [spam_row(1, 0.1), spam_row(0, 0.2), spam_row(1, 0.3)])
        ds = load_spambase(path)
        assert ds.features.shape == (3, SPAMBASE_FEATURES)
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])

    def test_full_size_round_trip(self, full_size_csv):
        path, ds = full_size_csv
        assert ds.features.shape == (SPAMBASE_ROWS, SPAMBASE_FEATURES)
        loaded = load_spambase(path)
        assert loaded.features.shape == (SPAMBASE_ROWS, SPAMBASE_FEATURES)
        np.testing.assert_allclose(loaded.features, ds.features, rtol=1e-12)
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_the_loader_holds_no_full_file_string_while_parsing(self, full_size_csv):
        # a full-file io.StringIO holds 4 bytes a character, a traced peak of about
        # 8.3 x the file's bytes; parsed through a chunked text wrapper it is 3.3 x
        path, _ = full_size_csv
        tracemalloc.start()
        try:
            load_spambase(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * path.stat().st_size

    def test_empty_file_is_format_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_spambase(path)

    def test_wrong_column_count_names_the_line(self, tmp_path):
        path = tmp_path / "short.csv"
        write_csv(path, [spam_row(1), [1.0, 2.0, 0]])
        with pytest.raises(DataFormatError, match="line 2"):
            load_spambase(path)

    def test_non_numeric_token_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = spam_row(0)
        row[3] = "spam"
        write_csv(path, [spam_row(1), spam_row(0), row])
        with pytest.raises(DataFormatError, match="line 3"):
            load_spambase(path)

    def test_an_undecodable_byte_names_the_path_and_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        write_csv(path, [spam_row(1), spam_row(0)])
        path.write_bytes(path.read_bytes() + b"0.5\xff" + b",0.5" * SPAMBASE_FEATURES + b"\n")
        with pytest.raises(DataFormatError,
                           match=rf"^{re.escape(str(path))}, line 3: byte 0xff is not UTF-8$"):
            load_spambase(path)

    def test_a_missing_file_is_a_format_error_naming_the_path(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: cannot read"):
            load_spambase(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_any_line_ending_is_read_and_counted(self, tmp_path, newline):
        path = tmp_path / "endings.csv"
        rows = [spam_row(1), spam_row(0), spam_row(2)]
        path.write_text(newline.join(",".join(map(str, row)) for row in rows) + newline,
                        newline="")
        with pytest.raises(DataFormatError, match=r", line 3: label must be 0 or 1"):
            load_spambase(path)
        path.write_text(newline.join(",".join(map(str, row)) for row in rows[:2]), newline="")
        np.testing.assert_array_equal(load_spambase(path).labels, [1, 0])

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_and_bad_label_rejected(self, tmp_path, token):
        path = tmp_path / "nan.csv"
        row = spam_row(1)
        row[0] = token
        write_csv(path, [row])
        with pytest.raises(DataFormatError, match="line 1: non-finite value"):
            load_spambase(path)
        path2 = tmp_path / "label.csv"
        write_csv(path2, [spam_row(2)])
        with pytest.raises(DataFormatError, match="label"):
            load_spambase(path2)


class TestSplit:
    def test_stratification_preserves_class_ratio(self):
        ds = synthetic_spambase_like(seed=1)
        train_idx, test_idx = stratified_split(ds.labels, 2.0 / 3.0, seed=0)
        r_train = ds.labels[train_idx].mean()
        r_test = ds.labels[test_idx].mean()
        assert abs(r_train - r_test) <= 1.0 / min(train_idx.size, test_idx.size)

    def test_per_class_counts_rounded_to_nearest(self):
        labels = np.array([1] * 10 + [0] * 7)
        train_idx, test_idx = stratified_split(labels, 2.0 / 3.0, seed=3)
        assert (labels[train_idx] == 1).sum() == 7   # round(20/3) = 7
        assert (labels[train_idx] == 0).sum() == 5   # round(14/3) = 5
        assert train_idx.size + test_idx.size == 17

    def test_split_always_standardizes_from_the_training_rows(self):
        ds = synthetic_spambase_like(seed=0)
        assert [f.name for f in fields(Dataset)] == ["features", "labels"]
        assert "apply_standardization" not in inspect.signature(split_and_shard).parameters
        sharded = split_and_shard(ds, m=4, seed=0)
        np.testing.assert_allclose(sharded.train_features.mean(axis=0), 0.0, atol=0.05)

    def test_split_and_shard_on_the_stand_in_corpus(self):
        ds = synthetic_spambase_like(seed=0)
        sharded = split_and_shard(ds, m=20, seed=0)
        # no index lists: worker j's 153 rows are the j-th contiguous block
        assert [f.name for f in fields(ShardedData)] == [
            "train_features", "train_labels", "test_features", "test_labels"]
        assert sharded.train_features.shape == (20 * 153, SPAMBASE_FEATURES)
        assert sharded.train_labels.shape == (20 * 153,)
        train_idx, _ = stratified_split(ds.labels, 2.0 / 3.0, seed=0)
        assert train_idx.size - 20 * 153 in (7, 8)  # 4601 * 2/3 stratified, mod 20

    def test_same_seed_identical_two_seeds_differ(self):
        ds = synthetic_spambase_like(seed=0)
        a = split_and_shard(ds, m=4, seed=5)
        b = split_and_shard(ds, m=4, seed=5)
        c = split_and_shard(ds, m=4, seed=6)
        np.testing.assert_array_equal(a.train_features, b.train_features)
        np.testing.assert_array_equal(a.test_labels, b.test_labels)
        assert not np.array_equal(a.train_features, c.train_features)
        assert a.train_features.shape == c.train_features.shape

    def test_single_worker_gets_the_whole_training_split(self):
        ds = synthetic_spambase_like(seed=0)
        sharded = split_and_shard(ds, m=1, seed=0)
        train_idx, _ = stratified_split(ds.labels, 2.0 / 3.0, seed=0)
        assert sharded.train_features.shape[0] == train_idx.size

    def test_dropping_the_tail_logs_a_warning(self, caplog):
        import logging

        ds = synthetic_spambase_like(seed=0)
        with caplog.at_level(logging.WARNING, logger="robustgd.data"):
            sharded = split_and_shard(ds, m=20, seed=0)
        train_idx, _ = stratified_split(ds.labels, 2.0 / 3.0, seed=0)
        dropped = train_idx.size - sharded.train_features.shape[0]
        assert dropped > 0
        assert [record.getMessage() for record in caplog.records] == [
            f"dropping {dropped} training rows so 20 workers get equal shards"]

    def test_too_many_workers_rejected(self):
        ds = Dataset(features=np.zeros((10, 2)), labels=np.array([0, 1] * 5))
        with pytest.raises(ConfigError):
            split_and_shard(ds, m=9, seed=0)

    def test_standardize_centers_scales_and_zeroes_dead_features(self, rng):
        train = rng.standard_normal((50, 3)) * np.array([2.0, 0.5, 1.0]) + 1.0
        train[:, 2] = 7.0  # zero variance
        test = rng.standard_normal((20, 3))
        train_z, test_z = standardize(np.vstack([train, test]), np.arange(50),
                                      np.arange(50), np.arange(50, 70))
        np.testing.assert_allclose(train_z[:, :2].mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(train_z[:, :2].std(axis=0), 1.0, rtol=1e-12)
        assert (train_z[:, 2] == 0.0).all() and (test_z[:, 2] == 0.0).all()

    def test_the_tail_that_m_does_not_divide_is_dropped(self):
        # 23 of 34 rows train: 8 of 12 positives and 15 of 22 negatives
        ds = Dataset(features=np.arange(68.0).reshape(34, 2),
                     labels=np.array([1] * 12 + [0] * 22))
        sharded = split_and_shard(ds, m=4, seed=0)
        assert sharded.train_features.shape == (20, 2) and sharded.train_labels.shape == (20,)

    def test_an_empty_test_split_is_refused(self):
        ds = synthetic_spambase_like(seed=0)
        with pytest.raises(ConfigError, match=r"^train_frac=0.9999 leaves an empty test split "
                                              r"\(4601 training rows, 0 test rows\)$"):
            split_and_shard(ds, train_frac=0.9999, m=20, seed=0)

    @pytest.mark.parametrize("labels, bad", [([0, 1, 2, 1, 2], 2), ([1, 0, -1, 0], -1)])
    def test_a_label_other_than_0_or_1_is_refused_at_the_split(self, labels, bad):
        with pytest.raises(ConfigError, match=rf"^labels must be 0 or 1, got {bad}$"):
            stratified_split(np.array(labels), 2.0 / 3.0, seed=0)
        ds = Dataset(features=np.zeros((len(labels), 2)), labels=np.array(labels))
        with pytest.raises(ConfigError, match=rf"^labels must be 0 or 1, got {bad}$"):
            split_and_shard(ds, m=1, seed=0)

    @pytest.mark.parametrize("cls", [0, 1])
    def test_a_single_class_splits_as_before(self, cls):
        # the absent class shuffles with permutation(0), which draws nothing
        train_idx, test_idx = stratified_split(np.full(9, cls), 2.0 / 3.0, seed=3)
        assert train_idx.tolist() == [0, 1, 2, 3, 5, 8]
        assert test_idx.tolist() == [4, 6, 7]

    @pytest.mark.parametrize("m", [0, -1])
    def test_fewer_than_one_worker_is_refused(self, m):
        ds = Dataset(features=np.zeros((10, 2)), labels=np.array([0, 1] * 5))
        with pytest.raises(ConfigError, match=rf"^m must be >= 1, got {m}$"):
            split_and_shard(ds, m=m, seed=0)


def test_the_stand_in_corpus_takes_only_a_seed():
    # its shape, class balance, column groups and flip fraction are the spambase stand-in's
    assert list(inspect.signature(synthetic_spambase_like).parameters) == ["seed"]
    ds = synthetic_spambase_like(seed=0)
    assert ds.features.shape == (SPAMBASE_ROWS, SPAMBASE_FEATURES)


def test_synthetic_corpus_is_deterministic_per_seed():
    a = synthetic_spambase_like(seed=2)
    b = synthetic_spambase_like(seed=2)
    c = synthetic_spambase_like(seed=3)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def whole_block_corpus(seed):
    """The stand-in corpus drawn with each Gaussian block in one call: (features, labels)."""
    n, dim, markers, diffuse, flip = SPAMBASE_ROWS, SPAMBASE_FEATURES, 6, 30, 0.05
    rng = np.random.default_rng([seed, 0xD3])
    classes = np.zeros(n, dtype=int)
    classes[:SPAMBASE_SPAM_ROWS] = 1
    classes = classes[rng.permutation(n)]
    features = np.zeros((n, dim))
    pos = classes == 1
    hit_rates = np.concatenate([[0.80], np.linspace(0.55, 0.30, markers - 1)])
    leak_rates = np.concatenate([[0.01], np.full(markers - 1, 0.03)])
    for j in range(markers):
        present = np.where(pos, rng.random(n) < hit_rates[j], rng.random(n) < leak_rates[j])
        features[:, j] = present * (1.2 + 0.5 * rng.exponential(1.0, size=n))
    offsets = rng.uniform(0.25, 0.45, size=diffuse) * rng.choice([-1.0, 1.0], size=diffuse)
    signs = np.where(pos, 0.5, -0.5)
    features[:, markers:markers + diffuse] = (
        rng.standard_normal((n, diffuse)) + np.outer(signs, offsets))
    features[:, markers + diffuse:] = rng.standard_normal((n, dim - markers - diffuse))
    features *= np.exp(rng.normal(0.0, 0.8, size=dim))
    labels = classes.copy()
    flips = rng.permutation(n)[: int(round(flip * n))]
    labels[flips] = 1 - labels[flips]
    return features, labels


@pytest.mark.parametrize("slab_rows", [1, _SLAB_ROWS, SPAMBASE_ROWS - 1, SPAMBASE_ROWS,
                                       SPAMBASE_ROWS + 1])
def test_slab_draws_keep_the_bits_of_whole_block_draws(monkeypatch, slab_rows):
    # one-row slabs, the module's 512, then 4,601 rows as 4,600 + 1, one full slab, one short slab
    monkeypatch.setattr("robustgd.data._SLAB_ROWS", slab_rows)
    ds = synthetic_spambase_like(seed=4)
    features, labels = whole_block_corpus(4)
    assert ds.features.tobytes() == features.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


def test_drawing_the_stand_in_corpus_holds_little_beside_it():
    synthetic_spambase_like(seed=0)  # imports and first-call caches
    tracemalloc.start()
    try:
        synthetic_spambase_like(seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= SPAMBASE_ROWS * SPAMBASE_FEATURES * 8 + 512 * 1024


def test_preparing_and_running_e1_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call: about 1.5 MB of RSS and 11 ms
    code = ("import sys\n"
            "from robustgd.experiments import ExperimentConfig, prepare_data, run_experiment\n"
            "cfg = ExperimentConfig(preset='E1', iterations=3)\n"
            "prepare_data(cfg)\n"
            "run_experiment(cfg)\n"
            "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(robustgd.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


# sha256 of the stand-in corpus, an integer copy of it and their splits for m in (1, 7, 20)
DATA_DIGESTS = {
    0: "7c67f6044333ab514b18f5441d833277d2bdb39175a3bb9a3b3ddfff5019bcfb",
    1: "2a903b2dd061bd6e4c28453a88c5f943af12241eae0ad4fa4d7ea26d796bd0c6",
}


@pytest.mark.parametrize("seed", [0, 1])
def test_the_corpus_and_its_splits_keep_their_bits(seed):
    ds = synthetic_spambase_like(seed=seed)
    counts = (np.abs(ds.features) * 100).astype(int)
    counts[:, 5] = 3  # a dead column
    datasets = [ds, Dataset(features=counts, labels=ds.labels)]
    digest = hashlib.sha256()
    for data in datasets:
        before = data.features.copy()
        arrays = [data.features, data.labels]
        for m in (1, 7, 20):
            sharded = split_and_shard(data, m=m, seed=seed)
            split = [sharded.train_features, sharded.train_labels,
                     sharded.test_features, sharded.test_labels]
            assert all(a.flags.c_contiguous and a.flags.owndata for a in split)
            assert sharded.train_features.dtype == sharded.test_features.dtype == np.float64
            arrays += split
        assert data.features.dtype == before.dtype
        assert data.features.tobytes() == before.tobytes()
        for a in arrays:
            digest.update(f"{a.dtype.str}{a.shape}".encode())
            digest.update(a.tobytes())
    assert digest.hexdigest() == DATA_DIGESTS[seed]


def test_preparing_the_e1_data_holds_the_corpus_and_its_outputs():
    cfg = ExperimentConfig(preset="E1")
    prepare_data(cfg)  # imports and first-call caches
    tracemalloc.start()
    try:
        sharded = prepare_data(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = sharded.train_features.nbytes + sharded.test_features.nbytes
    assert peak <= SPAMBASE_ROWS * SPAMBASE_FEATURES * 8 + outputs + 256 * 1024
