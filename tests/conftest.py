"""Test-session hooks shared by the tier-1 suite."""

import warnings

import pytest


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Load hypothesis's failing-example patch writer with its import warning off.

    When a property test fails, hypothesis's pytest plugin writes an
    ``@example`` patch with libcst, whose import warns DeprecationWarning
    (``mypy_extensions.TypedDict``).  Under ``-W error::DeprecationWarning``
    that import would end the run in INTERNALERROR with no traceback, so it
    is made here first, with only that import's DeprecationWarnings ignored.
    """
    if call.excinfo is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:  # no libcst: the plugin then writes no patch
            pass
