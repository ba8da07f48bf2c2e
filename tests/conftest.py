from contextlib import contextmanager

import pytest

from skyburst import recurrences as rec


@contextmanager
def _printed_forms():
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(rec._IDENTITIES, "omega_shift", (1, lambda n, w, rows: rec._residual(
            rec._omega_up(n, w, rows, printed=True), rows.member(n, w + 1)
        )))
        mp.setitem(rec._IDENTITIES, "lifting", (0, lambda n, w, rows: rec._residual(
            rec._lifting_printed(n, w, rows), rows.member(n, w + 1)
        )))
        yield


@pytest.fixture
def printed_forms():
    """A context manager: inside it the sweep's omega_shift and lifting rows check the faulty printed cores."""
    return _printed_forms
