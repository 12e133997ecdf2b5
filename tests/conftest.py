"""Fixtures that more than one test module uses."""

import numpy as np
import pytest


@pytest.fixture
def count_eigvalsh(monkeypatch):
    """The shapes of the matrices passed to np.linalg.eigvalsh, call by call."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls
