"""Session set-up shared by the test modules."""
import os

import pytest

from tsrk.problems import CACHE_ENV


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
