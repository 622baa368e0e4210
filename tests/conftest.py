from types import SimpleNamespace

import pytest

from dompkit import linalg


@pytest.fixture
def qr_buffers(monkeypatch):
    """Counts what the incremental QR does with its shared buffers.

    ``rewinds`` counts the appends to a snapshot shorter than the columns
    its buffer holds (the extension of an earlier state), and
    ``branch_copies`` lists t for each buffer copied at its own capacity
    to take such an append; a copy that grows the buffer is not listed.
    """
    log = SimpleNamespace(rewinds=0, branch_copies=[])
    append = linalg.IncrementalQRSolver._append

    def counted_append(self, indices):
        log.rewinds += self._buffer.used > self._t
        return append(self, indices)

    class CountedBuffer(linalg._QRBuffer):
        def __init__(self, m, capacity, source=None, t=0):
            if source is not None and capacity == source.Q.shape[1]:
                log.branch_copies.append(t)
            super().__init__(m, capacity, source, t)

    monkeypatch.setattr(linalg.IncrementalQRSolver, "_append", counted_append)
    monkeypatch.setattr(linalg, "_QRBuffer", CountedBuffer)
    return log
