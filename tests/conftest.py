"""Fixtures shared across the test modules."""

# fisherjscc before NumPy: importing it pins OpenBLAS to one thread, which NumPy reads
# when it loads, so the PSNR cells' pool workers do not share cores with BLAS threads.
from fisherjscc import autodiff as ad
from fisherjscc import models

import numpy as np
import pytest


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


@pytest.fixture
def nan_in_second_step_gradient(monkeypatch):
    """Plant a NaN in one parameter's gradient, W0's, in the third `models._mlp_backprop`
    call: a training step makes two, the encoder's and the decoder's, so in step two."""
    backprop, calls = models._mlp_backprop, []

    def planted(layers, d_out):
        grads = backprop(layers, d_out)
        calls.append(1)
        if len(calls) == 3:
            grads[1][0, 0] = np.nan
        return grads

    monkeypatch.setattr(models, "_mlp_backprop", planted)
