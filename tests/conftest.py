"""Shared test setup: temporary files go to a pytest-managed directory."""

import tempfile

import pytest


@pytest.fixture(autouse=True, scope="session")
def _session_tempdir(tmp_path_factory):
    """Point tempfile at a directory of this session, so the run files of
    pair searches (~111 MB at 10^7) never pile up in the system temp
    directory, even when a run is interrupted."""
    saved = tempfile.tempdir
    tempfile.tempdir = str(tmp_path_factory.mktemp("tempfile"))
    yield
    tempfile.tempdir = saved
