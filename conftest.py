"""Repository-wide pytest configuration: the per-test timeout fallback.

For environments without pytest-timeout, the ``timeout`` ini option
(300 s) is enforced with a POSIX ``SIGALRM`` that fails the running
test, and ``faulthandler`` dumps every thread's stack at the same moment
in case the alarm cannot interrupt the code.  It lives at the repository
root so it covers both ``tests/`` and ``benchmarks/``.  With the plugin
installed (as in CI) the fallback stays out of the way.
"""

from __future__ import annotations

import faulthandler
import signal
from typing import Any, Iterator

import pytest

#: Used when the ini file sets no ``timeout``.
_DEFAULT_TIMEOUT = 300


def _fallback_timeout(config: pytest.Config) -> int | None:
    """Seconds per test for the fallback, or ``None`` when it must stay off."""
    if config.pluginmanager.hasplugin("timeout") or not hasattr(signal, "SIGALRM"):
        return None
    return int(config.inicfg.get("timeout", _DEFAULT_TIMEOUT))


def _on_alarm(_signum: int, _frame: Any) -> None:
    pytest.fail("test exceeded the per-test timeout (see the faulthandler dump above)", pytrace=False)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item: pytest.Item, nextitem: pytest.Item | None) -> Iterator[None]:
    timeout = _fallback_timeout(item.config)
    if not timeout:
        yield
        return
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    faulthandler.dump_traceback_later(timeout)
    signal.alarm(timeout)
    try:
        yield
    finally:
        signal.alarm(0)
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGALRM, previous)
