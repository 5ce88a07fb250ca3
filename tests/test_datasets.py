import numpy as np
import pytest

from bgmo.datasets import Dataset, builtin_dataset, load_dataset, save_dataset


class TestBuiltinFixtures:
    def test_turbocharger_checksums(self):
        ds = builtin_dataset("turbocharger")
        assert ds.n_obs == 40
        assert ds.values.min() == pytest.approx(1.6)
        assert ds.values.max() == pytest.approx(9.0)
        assert ds.values.sum() == pytest.approx(250.1, abs=1e-9)

    def test_nicotine_checksums(self):
        ds = builtin_dataset("nicotine")
        assert ds.n_obs == 346
        assert ds.values.min() >= 0.1
        assert ds.values.max() <= 2.0
        assert ds.values.sum() == pytest.approx(295.0, abs=1e-9)

    def test_carbon_fibres_checksums(self):
        ds = builtin_dataset("carbon_fibres")
        assert ds.n_obs == 100
        assert ds.values[0] == pytest.approx(3.70)
        assert ds.values.min() == pytest.approx(0.39)
        assert ds.values.sum() == pytest.approx(262.13, abs=1e-9)

    def test_all_positive(self):
        for name in ("turbocharger", "nicotine", "carbon_fibres"):
            assert np.all(builtin_dataset(name).values > 0)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_dataset("ball_bearings")


class TestLoadDataset:
    def test_whitespace_and_newlines(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1.5 2.5\n3.5\n")
        ds = load_dataset(p)
        np.testing.assert_array_equal(ds.values, [1.5, 2.5, 3.5])

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# comment line\n1 2 3\n# another\n4\n")
        assert load_dataset(p).n_obs == 4

    def test_csv_sniffing(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0, 2.0, 3.0\n4.0,5.0\n")
        np.testing.assert_array_equal(load_dataset(p).values, [1, 2, 3, 4, 5])

    def test_parse_error_position(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("a,b\n")
        with pytest.raises(ValueError, match=r"1:1"):
            load_dataset(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            load_dataset(p)

    def test_comma_in_a_comment_keeps_whitespace(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# times, in hours\n1.5 2.5\n3.5\n")
        np.testing.assert_array_equal(load_dataset(p).values, [1.5, 2.5, 3.5])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = Dataset("draws", rng.exponential(1.0, 37))
        out = tmp_path / "out.txt"
        save_dataset(ds, out)
        back = load_dataset(out)
        np.testing.assert_array_equal(back.values, ds.values)


class TestDatasetInvariants:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset("x", [])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset("x", [1.0, np.inf])

    def test_n_obs(self):
        assert Dataset("x", [1.0, 2.0]).n_obs == 2
