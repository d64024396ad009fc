"""Session set-up and helpers shared by the test modules."""
import contextlib
import dataclasses
import inspect
import os
import sys
from pathlib import Path

import pytest

import tsrk
from tsrk.problems import CACHE_ENV

# pyproject.toml makes these warnings errors in pytest's own process only.
_CHILD_WARNINGS = "error::RuntimeWarning,error::DeprecationWarning,error::FutureWarning"


@pytest.fixture(scope="session", autouse=True)
def session_record_cache(tmp_path_factory):
    """Keep the suite's reference records out of the user's ``~/.cache/tsrk``.

    With TSRK_CACHE_DIR unset the records go to a directory of this session
    (so such a run starts cold); with it set, that cache serves the run, so a
    warm cache still makes a warm run.
    """
    if os.environ.get(CACHE_ENV):
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_ENV, str(tmp_path_factory.mktemp("tsrk-cache")))
        yield


@pytest.fixture
def child_env(tmp_path):
    """Environment of a fresh interpreter: the tested package's ``src`` first
    on PYTHONPATH, a record cache of this test's own under ``tmp_path``, and
    the suite's warning filters."""
    src = str(Path(tsrk.__file__).resolve().parents[1])
    return dict(os.environ, TSRK_CACHE_DIR=str(tmp_path / "cache"),
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                PYTHONWARNINGS=_CHILD_WARNINGS)


def called_through_a_wrapper(problem):
    """``problem`` whose rhs is a wrapper of its own: a wrapper carries no
    model, so the integrator's stages and the reference solver call it."""
    return dataclasses.replace(problem, rhs=lambda t, y: problem.rhs(t, y))


@contextlib.contextmanager
def calls_of(rhs):
    """A list that gains an entry per call, under ``sys.setprofile``, of
    ``rhs``, a model's rhs from ``problems._model``.  Every model's rhs runs
    one code object, so a call counts where its frame holds this model's
    row function, which the model's Radau IIA residual runs without a call
    of the rhs."""
    code, rows = rhs.__code__, inspect.getclosurevars(rhs).nonlocals["rows"]
    calls, previous = [], sys.getprofile()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code and frame.f_locals["rows"] is rows:
            calls.append(1)

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)
