"""Fixtures shared across the test modules."""

import weakref

# fisherjscc before NumPy: importing it pins OpenBLAS to one thread, which NumPy reads
# when it loads, so the PSNR cells' pool workers do not share cores with BLAS threads.
from fisherjscc import autodiff as ad
from fisherjscc import experiments, models

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


def _owner(array: np.ndarray) -> np.ndarray:
    """The array at the end of `array`'s chain of `.base`: the one that holds its memory."""
    while array.base is not None:
        array = array.base
    return array


@pytest.fixture
def live_at_each_draw(monkeypatch):
    """Spy on experiments.channel_noise and experiments._kl_rows, the sweep's and the
    Taylor check's draws and KL, and return a list that gets, at every draw after the
    first, how many arrays of the previous block are still alive: the memory of its
    noise and of each log-posterior buffer passed to `_kl_rows`."""
    block, live = [], []
    draw, kl_rows = experiments.channel_noise, experiments._kl_rows

    def noise(*args, **kwargs):
        if block:
            live.append(sum(ref() is not None for ref in block))
            block.clear()
        z_hat = draw(*args, **kwargs)
        block.append(weakref.ref(_owner(z_hat)))
        return z_hat

    def kl(log_p, log_q):
        block.append(weakref.ref(_owner(log_q)))
        return kl_rows(log_p, log_q)

    monkeypatch.setattr(experiments, "channel_noise", noise)
    monkeypatch.setattr(experiments, "_kl_rows", kl)
    return live


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
