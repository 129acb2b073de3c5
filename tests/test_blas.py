"""The BLAS thread policy: when evaluate may add a worker thread."""

import pytest

from npd import blas


@pytest.mark.parametrize("unset", blas.THREAD_VARS)
def test_worker_needs_every_blas_variable_at_1(monkeypatch, unset):
    monkeypatch.setattr(blas.os, "sched_getaffinity", lambda pid: {0, 1})
    for var in blas.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert blas.worker_allowed()
    monkeypatch.setenv(unset, "2")
    assert not blas.worker_allowed()
    monkeypatch.delenv(unset)
    assert not blas.worker_allowed()


def test_worker_needs_two_usable_cores(monkeypatch):
    for var in blas.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(blas.os, "sched_getaffinity", lambda pid: {3})
    assert not blas.worker_allowed()
    monkeypatch.delattr(blas.os, "sched_getaffinity")
    assert not blas.worker_allowed()

