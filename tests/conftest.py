import pytest

_ORACLE_TEST = "test_cached_logits_and_choices_bit_exact"


def pytest_collection_modifyitems(items):
    # The tests that wait for the cache oracle's runs go last, so that the
    # rest of the suite runs beside them.
    items.sort(key=lambda item: item.originalname == _ORACLE_TEST)


@pytest.fixture(scope="session", autouse=True)
def cache_oracle_runs(request, tmp_path_factory):
    """The two runs of ``test_model_cache.CACHE_SCRIPT``, started when the
    session starts, when it holds a test that reads them; each such test
    waits for its own. Both are stopped when the session ends."""
    if not any(item.originalname == _ORACLE_TEST for item in request.session.items):
        yield {}
        return
    from test_model_cache import start_cache_oracle_runs

    runs = {}
    try:
        start_cache_oracle_runs(tmp_path_factory.mktemp("cache_oracle"), runs)
        yield runs
    finally:
        for run, _ in runs.values():
            run.kill()
            run.wait()
