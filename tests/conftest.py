"""Fixtures shared across the test modules."""

import pytest

from fisherjscc import autodiff as ad


@pytest.fixture
def tensors_built_by():
    """tensors_built_by(fn, *args, **kwargs): how many `autodiff.Tensor`s the call builds."""
    def count(fn, *args, **kwargs) -> int:
        built = []
        init = ad.Tensor.__init__

        def counted(self, *a, **k):
            built.append(1)
            init(self, *a, **k)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ad.Tensor, "__init__", counted)
            fn(*args, **kwargs)
        return len(built)

    return count
