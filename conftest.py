import pytest


@pytest.fixture(scope="session", autouse=True)
def session_cache(tmp_path_factory):
    """Module and session fixtures that load batch files cache them here."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Each test caches parsed batch files under its own tmp_path, never the user's cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache"
