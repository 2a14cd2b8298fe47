"""Shared fixtures."""

import sys

import pytest

from recsums import seq


@pytest.fixture
def unlimited_str():
    """Lift the int-to-str digit limit for the test's own str() calls."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


class _CorruptedStore:
    """A prefix store whose numerator at ``index`` is one too large."""

    def __init__(self, store, index):
        self.den, self._store, self._index = store.den, store, index

    def numerators(self, count):
        out = list(self._store.numerators(count))
        if self._index < count:
            out[self._index] += 1
        return out


@pytest.fixture(scope="session")
def corrupt_store():
    """corrupt_store(patch, spec, index), with patch a ``MonkeyPatch``: from
    then on, spec's prefix store serves its numerator at index one too large
    (session-scoped, so Hypothesis tests can use it with their own patch)."""
    def corrupt(patch, spec, index):
        real = seq.store
        patch.setattr(seq, "store", lambda s: (_CorruptedStore(real(s), index)
                                               if s == spec else real(s)))
    return corrupt
