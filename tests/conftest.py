import numpy as np
import pytest

from qsat import tensor


@pytest.fixture(autouse=True)
def fresh_tape():
    """Forward-only tests leave recorded nodes behind; isolate them."""
    tensor._tape.clear()
    yield
    tensor._tape.clear()


_project = tensor.register_custom_backward(
    lambda x, up: np.sum(x * up, dtype=np.float64),
    lambda g, x, up: (g * up, None),
    name="project",
)


def project(out: tensor.Tensor, up=None) -> tensor.Tensor:
    """The scalar loss sum(out * up), a test's way to start a backward pass.

    Its gradient into ``out`` is ``up`` itself: the same values, cast to
    ``out``'s dtype, in ``up``'s memory layout.  ``up`` defaults to ones,
    which makes the loss the plain sum of ``out``.
    """
    up = np.ones_like(out.data) if up is None else up
    return _project(out, tensor.Tensor(up))
