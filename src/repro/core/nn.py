"""One stacked feed-forward network with Adam, in pure numpy.

The paper's actor and critic are small 4-layer perceptrons trained with a
DDPG-style procedure; the critic is an ensemble of K such base models
(Eq. 6).  :class:`StackedMLP` holds K same-shape MLPs as one network, so
the critic uses K = ensemble size and the actor K = 1:

* layer ``l`` keeps ``(K, in, out)`` weights and ``(K, 1, out)`` biases,
  so a layer is one batched ``matmul`` over all K members;
* parameters, gradients and both Adam moments each live in one flat
  buffer with per-layer views, and the Adam step is a few in-place
  ufuncs over the whole buffer;
* backpropagation gives parameter gradients and, separately, gradients
  with respect to the input (to push actor outputs through the critic).
  It reads each activation's slope from the cached forward (a ReLU mask,
  ``s*(1-s)`` of the cached sigmoid output, nothing at a linear output)
  and multiplies by transposed weight views made once: the flat buffer
  is updated in place, so the views stay current.

Inputs are ``(K, batch, in)`` (a batch per member) or ``(batch, in)``
(shared); outputs are ``(K, batch, out)``.  Each member computes bit for
bit what a standalone 2-D MLP with textbook Adam computes: a member's
slice of a stacked ``matmul`` makes the same BLAS call as the 2-D
product, initial weights are drawn member-major and layer-minor, and
Adam keeps the textbook operation order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_backward(grad, pre, out):
    return grad * (pre > 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _sigmoid_backward(grad, pre, out):
    return grad * (out * (1.0 - out))


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _identity_backward(grad, pre, out):
    return grad


#: name -> (forward, backward); backward maps ``(grad, pre-activation,
#: output)`` of a cached forward to ``grad`` times the activation's slope.
_ACTIVATIONS: Dict[str, Tuple[Callable, Callable]] = {
    "relu": (_relu, _relu_backward),
    "sigmoid": (_sigmoid, _sigmoid_backward),
    "linear": (_identity, _identity_backward),
}


def _layer_views(
    buffer: np.ndarray, members: int, shapes: Sequence[Tuple[int, int]]
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-layer ``(K, in, out)`` weight and ``(K, 1, out)`` bias views."""
    views, offset = [], 0
    for fan_in, fan_out in shapes:
        for rows in (fan_in, 1):
            size = members * rows * fan_out
            views.append(buffer[offset : offset + size].reshape(members, rows, fan_out))
            offset += size
    return views[0::2], views[1::2]


class StackedMLP:
    """K same-shape ReLU MLPs with backprop, input gradients and in-place Adam."""

    def __init__(
        self,
        members: int,
        layer_sizes: Sequence[int],
        output_activation: str = "linear",
        learning_rate: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ):
        if members < 1:
            raise ValueError(f"members must be >= 1, got {members}")
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if min(layer_sizes) < 1:
            raise ValueError(f"layer sizes must be >= 1, got {list(layer_sizes)}")
        if output_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {output_activation!r}")
        rng = rng if rng is not None else np.random.default_rng()
        self.members = members
        self.learning_rate = learning_rate

        shapes = list(zip(layer_sizes[:-1], layer_sizes[1:]))
        total = members * sum(fan_out * (fan_in + 1) for fan_in, fan_out in shapes)
        self.parameters = np.zeros(total)
        self.gradients = np.zeros(total)
        self._first_moment = np.zeros(total)
        self._second_moment = np.zeros(total)
        self._temporaries = (np.empty(total), np.empty(total))
        self.weights, self.biases = _layer_views(self.parameters, members, shapes)
        self.grad_weights, self.grad_biases = _layer_views(
            self.gradients, members, shapes
        )
        self._transposed_weights = [np.swapaxes(w, -1, -2) for w in self.weights]
        self._activations = [_ACTIVATIONS["relu"]] * (len(shapes) - 1)
        self._activations.append(_ACTIVATIONS[output_activation])
        # Member-major, layer-minor: the draws K separate networks make.
        for member in range(members):
            for weight, (fan_in, fan_out) in zip(self.weights, shapes):
                scale = np.sqrt(2.0 / (fan_in + fan_out))
                weight[member] = rng.normal(0.0, scale, size=(fan_in, fan_out))
        # The last cached forward: the input and every layer's output
        # (layer l maps values[l] to values[l + 1]), and the pre-activations.
        self._values: Optional[List[np.ndarray]] = None
        self._preactivations: Optional[List[np.ndarray]] = None
        self._step_count = 0

    def forward(self, inputs: np.ndarray, cache: bool = True) -> np.ndarray:
        """``(K, batch, out)`` outputs for ``(K, batch, in)`` or ``(batch, in)``.

        With ``cache=True`` the outputs are part of the cache (a sigmoid
        output's slope is read from them), so callers must not write
        into them before backpropagating.
        """
        values = [np.asarray(inputs, dtype=float)]
        preactivations = []
        for weight, bias, (activation, _) in zip(
            self.weights, self.biases, self._activations
        ):
            preactivations.append(values[-1] @ weight + bias)
            values.append(activation(preactivations[-1]))
        if cache:
            self._values, self._preactivations = values, preactivations
        return values[-1]

    def backward(self, grad_output: np.ndarray) -> None:
        """Backprop a loss gradient, accumulating parameter gradients.

        The gradient w.r.t. the input, which no training step reads, is
        not formed; :meth:`input_gradient` gives it.
        """
        grad = grad_output
        for index in reversed(range(len(self.weights))):
            grad_pre = self._through_activation(index, grad)
            layer_input = np.swapaxes(self._values[index], -1, -2)
            self.grad_weights[index] += layer_input @ grad_pre
            self.grad_biases[index] += grad_pre.sum(axis=-2, keepdims=True)
            if index:
                grad = grad_pre @ self._transposed_weights[index]

    def input_gradient(self, grad_output: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the input only (parameter gradients untouched)."""
        grad = grad_output
        for index in reversed(range(len(self.weights))):
            grad_pre = self._through_activation(index, grad)
            grad = grad_pre @ self._transposed_weights[index]
        return grad

    def _through_activation(self, index: int, grad: np.ndarray) -> np.ndarray:
        """``grad`` times layer ``index``'s activation slope at the cached forward."""
        if self._preactivations is None:
            raise RuntimeError("backward called before a cached forward pass")
        _, backward = self._activations[index]
        return backward(grad, self._preactivations[index], self._values[index + 1])

    def zero_grad(self) -> None:
        self.gradients.fill(0.0)

    def step(self) -> None:
        """One Adam update of every member from the accumulated gradients.

        In place, in the textbook order: ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + (1-b2)*g**2``, ``p -= (lr*m_hat) / (sqrt(v_hat) + eps)``.
        """
        self._step_count += 1
        m, v, grad = self._first_moment, self._second_moment, self.gradients
        update, denominator = self._temporaries
        m *= ADAM_BETA1
        np.multiply(grad, 1.0 - ADAM_BETA1, out=update)
        m += update
        v *= ADAM_BETA2
        np.multiply(grad, grad, out=update)
        update *= 1.0 - ADAM_BETA2
        v += update
        np.divide(m, 1.0 - ADAM_BETA1**self._step_count, out=update)
        update *= self.learning_rate
        np.divide(v, 1.0 - ADAM_BETA2**self._step_count, out=denominator)
        np.sqrt(denominator, out=denominator)
        denominator += ADAM_EPSILON
        update /= denominator
        self.parameters -= update

    def fit_step(self, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """One MSE regression step of every member; returns ``(K,)`` losses."""
        error = self.forward(inputs, cache=True) - targets
        losses = np.mean(error**2, axis=(-2, -1))
        self.zero_grad()
        self.backward(2.0 * error / error.shape[-2])
        self.step()
        return losses
