"""Backend selection: env var, default, explicit argument, degradation."""

import pytest

from repro.fastpath import backend as bk
from repro.predictors.bimodal import BimodalPredictor


class TestResolution:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert bk.default_backend() == "reference"
        assert bk.resolve_backend(None) == "reference"

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        assert bk.default_backend() == "vectorized"

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        assert bk.resolve_backend("reference") == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            bk.resolve_backend("cuda")
        with pytest.raises(ValueError):
            bk.resolve_backend("")

    def test_degrades_without_numpy(self, monkeypatch):
        monkeypatch.setattr(bk, "HAS_NUMPY", False)
        assert bk.resolve_backend("vectorized") == "reference"

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "simd")
        with pytest.raises(ValueError):
            bk.default_backend()

    @pytest.mark.parametrize("value,armed", [
        (None, False), ("", False), ("0", False), ("1", True),
        ("yes", True)])
    def test_invariants_default_follows_env(self, monkeypatch, value,
                                            armed):
        if value is None:
            monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        else:
            monkeypatch.setenv("REPRO_CHECK_INVARIANTS", value)
        assert bk.default_invariants() is armed


class TestClassPickup:
    @pytest.fixture(autouse=True)
    def _clean_default(self, monkeypatch):
        # Neutralise any REPRO_BACKEND the invoking shell exported so
        # these assertions see the documented out-of-the-box default.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)

    def test_constructor_stores_resolved_backend(self):
        assert BimodalPredictor().backend == "reference"
        assert BimodalPredictor(backend="vectorized").backend == "vectorized"

    def test_default_pickup_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        assert BimodalPredictor().backend == "vectorized"
        monkeypatch.delenv("REPRO_BACKEND")
        assert BimodalPredictor().backend == "reference"

    def test_scalar_api_identical_across_backends(self):
        ref = BimodalPredictor(n_entries=64, backend="reference")
        vec = BimodalPredictor(n_entries=64, backend="vectorized")
        for pc in range(0, 4096, 4):
            outcome = (pc // 64) % 3 == 0
            assert ref.predict(pc) == vec.predict(pc)
            ref.update(pc, outcome)
            vec.update(pc, outcome)
        assert ref._table.values == vec._table.values
