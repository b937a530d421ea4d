"""The platform line the acceptance summary prints: which BLAS kernel is running."""

import conftest


def test_corename_names_the_running_kernel():
    name = conftest.openblas_corename()
    assert isinstance(name, str) and name


def test_corename_is_unknown_without_an_openblas_library(monkeypatch):
    monkeypatch.setattr(conftest, "openblas_libraries", lambda: [])
    assert conftest.openblas_corename() == "unknown"


def test_corename_is_unknown_when_the_library_cannot_be_loaded(monkeypatch, tmp_path):
    monkeypatch.setattr(conftest, "openblas_libraries", lambda: [tmp_path / "libscipy_openblas64_-missing.so"])
    assert conftest.openblas_corename() == "unknown"


def test_fingerprint_names_the_kernel_and_a_forced_coretype(monkeypatch):
    monkeypatch.setattr(conftest, "openblas_corename", lambda: "Kernel")
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    assert conftest.platform_fingerprint().endswith(", BLAS kernel Kernel")
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Forced")
    assert conftest.platform_fingerprint().endswith(", BLAS kernel Kernel, OPENBLAS_CORETYPE=Forced")
