"""Seeded fault injection for monitor-sensitivity testing.

Each named mutant disables exactly one dynamic check.  They exist so the
test suite can prove the monitors are not vacuous: enabling any mutant must
make at least one acceptance check fail.
"""
from __future__ import annotations

from contextlib import contextmanager

KNOWN = frozenset(
    {
        "ctx_alloc_unchecked",  # boundary alloc skips the embedded-shareable check
        "ctx_read_unchecked",  # boundary read skips the shareable check
        "ctx_write_unchecked",  # boundary write skips the shareable check
        "label_share_unchecked",  # label_shareable skips the points-to check
        "lr_write_share_unchecked",  # lr_write skips its ShareLeak check
        "import_no_post",  # imported arrows skip their post contract
    }
)

_active: set[str] = set()


def is_active(name: str) -> bool:
    return name in _active


@contextmanager
def enabled(name: str):
    if name not in KNOWN:
        raise ValueError(f"unknown mutant {name!r}")
    _active.add(name)
    try:
        yield
    finally:
        _active.discard(name)
