"""Fixtures shared across the test modules."""

import weakref

# fisherjscc before NumPy: importing it pins OpenBLAS to one thread, which NumPy reads
# when it loads, so the PSNR cells' pool workers do not share cores with BLAS threads.
from fisherjscc import autodiff as ad
from fisherjscc import experiments, models, robustness
from fisherjscc import train as train_module

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


def _plant_in_upstream(node) -> None:
    """Make node's gradient, the upstream array its function receives, NaN at one entry."""
    gradients = node._gradients

    def planted(g):
        g = np.array(g)
        g.flat[0] = np.nan
        return gradients(g)

    node._gradients = planted


@pytest.fixture
def nan_in_second_step(monkeypatch):
    """nan_in_second_step(site): plant a NaN at one site of training's second step,
    which needs lambda > 0 for the trace sites.

    The forward sites, "encoder-layer", "log-posteriors" and "trace", are the
    encoder's last affine output, the decoder node's log-posteriors and the trace:
    each NaN goes in after the finite check of the code that makes the value, so a
    check further on has to catch it. "z_hat-gradient", "decoder-gradient",
    "trace-gradient" and "encoder-gradient" make that node's upstream gradient NaN
    at one entry, and "loss" swaps in a NaN loss node whose gradients stay the step's.
    """
    def plant(site: str) -> None:
        armed, steps = [], []

        def first_armed_call(function, value):
            def wrapped(*args, **kwargs):
                out = function(*args, **kwargs)
                if armed:
                    armed.clear()
                    value(out).flat[0] = np.nan
                return out
            return wrapped

        # A step's first `_mlp_values` call is the encoder's, its first `_log_softmax`
        # call the decoder node's; the trace's forward comes after both.
        forward = {"encoder-layer": (models, "_mlp_values", lambda h: h),
                   "log-posteriors": (models, "_log_softmax", lambda log_q: log_q),
                   "trace": (robustness, "_ClosedForm", lambda form: form.trace)}
        if site in forward:
            module, name, value = forward[site]
            monkeypatch.setattr(module, name,
                                first_armed_call(getattr(module, name), value))
        regularized_loss = train_module.regularized_loss

        def loss(*args, **kwargs):
            steps.append(1)
            armed[:] = [1] if len(steps) == 2 else []
            parts = regularized_loss(*args, **kwargs)
            armed.clear()
            if len(steps) != 2 or site in forward:
                return parts
            total = parts.total
            if site == "loss":
                return parts._replace(total=ad.Tensor(np.nan, total._parents,
                                                      total._gradients))
            log_q, trace = total._parents
            z_hat = log_q._parents[0]
            _plant_in_upstream({"z_hat-gradient": z_hat, "decoder-gradient": log_q,
                                "trace-gradient": trace,
                                "encoder-gradient": z_hat._parents[0]}[site])
            return parts

        monkeypatch.setattr(train_module, "regularized_loss", loss)

    return plant
