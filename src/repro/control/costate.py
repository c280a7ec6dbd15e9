"""Costate (adjoint) dynamics for Pontryagin's principle (paper Eqs. 15–16).

With the Hamiltonian::

    H = Σ_i [c1 ε1² S_i² + c2 ε2² I_i²]
      + Σ_i ψ_i (α − λ_i S_i Θ − ε1 S_i)
      + Σ_i q_i (λ_i S_i Θ − ε2 I_i)

(the paper writes the I-costate as φ_i; we use q_i to avoid clashing with
the coupling weights φ(k_i) = ω(k_i)P(k_i)), the adjoint equations are
``dψ_i/dt = −∂H/∂S_i`` and ``dq_i/dt = −∂H/∂I_i`` with transversality
``ψ_i(tf) = 0`` and ``q_i(tf) = w`` (terminal weight).

Because ``Θ = (1/⟨k⟩) Σ_j φ_j I_j`` couples all groups,
``∂H/∂I_i`` contains the **cross-group** sum
``(φ_i/⟨k⟩) Σ_j (q_j − ψ_j) λ_j S_j``.  The paper's Eq. (16) keeps only
the ``j = i`` term; both variants are implemented —
``mode="full"`` (mathematically exact gradient, default) and
``mode="paper"`` (the published diagonal approximation) — and compared
in the A2 ablation benchmark.
"""

from __future__ import annotations

from typing import Callable, Literal

import numpy as np

from repro.core.parameters import RumorModelParameters
from repro.exceptions import ParameterError

__all__ = ["AdjointKernel", "CostateMode", "adjoint_kernel", "costate_rhs",
           "make_costate_rhs"]

CostateMode = Literal["full", "paper"]

#: ``kernel(S, I, ψ, q, ε1, ε2) -> [−dψ/dt, −dq/dt]`` as one flat array.
AdjointKernel = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                          float, float], np.ndarray]


def adjoint_kernel(params: RumorModelParameters, c1: float, c2: float, *,
                   mode: CostateMode = "full") -> AdjointKernel:
    """Build the fused adjoint kernel for one ``(params, c1, c2, mode)``.

    The kernel returns the *negated* adjoint derivative
    ``[−dψ/dt, −dq/dt]`` as one flat array of length ``2n`` — exactly the
    right-hand side of the costate ODE in reversed time ``τ = tf − t``
    that the backward sweep integrates.  ``mode`` is validated and
    ``φ(k)/⟨k⟩`` computed once here rather than on every call.  Each
    value takes the same IEEE operations as the textbook formulas in
    :func:`costate_rhs`'s docstring; the negation is folded into the
    subtraction order, which is exact.
    """
    if mode not in ("full", "paper"):
        raise ParameterError(f"unknown costate mode {mode!r}")
    n = params.n_groups
    lam = params.lambda_k
    phi = params.phi_k
    mean_k = float(params.mean_degree)
    phi_over_k = phi / mean_k
    full = mode == "full"

    def kernel(susceptible: np.ndarray, infected: np.ndarray,
               psi: np.ndarray, q: np.ndarray,
               eps1: float, eps2: float) -> np.ndarray:
        theta = float(np.dot(phi, infected)) / mean_k
        out = np.empty(2 * n)
        neg_dpsi = out[:n]
        neg_dq = out[n:]
        tmp = np.empty(n)

        # −dψ_i/dt = ∂H/∂S_i
        #          = q_i λ_i Θ − (−2 c1 ε1² S_i + ψ_i (λ_i Θ + ε1))
        np.multiply(lam, theta, out=tmp)
        tmp += eps1
        tmp *= psi
        np.multiply(susceptible, -2.0 * c1 * eps1 ** 2, out=neg_dpsi)
        neg_dpsi += tmp
        np.multiply(q, lam, out=tmp)
        tmp *= theta
        np.subtract(tmp, neg_dpsi, out=neg_dpsi)

        # −dq_i/dt = ∂H/∂I_i
        #          = (φ_i/⟨k⟩) Σ_j (q_j − ψ_j) λ_j S_j
        #            − (−2 c2 ε2² I_i) − q_i ε2
        # (paper mode keeps only the j = i term of the sum).
        np.multiply(lam, susceptible, out=tmp)
        np.subtract(q, psi, out=neg_dq)
        if full:
            coupling = float(np.dot(neg_dq, tmp))
            np.multiply(phi_over_k, coupling, out=neg_dq)
        else:
            neg_dq *= phi_over_k
            neg_dq *= tmp
        np.multiply(infected, -2.0 * c2 * eps2 ** 2, out=tmp)
        neg_dq -= tmp
        np.multiply(q, eps2, out=tmp)
        neg_dq -= tmp
        return out

    return kernel


def costate_rhs(params: RumorModelParameters,
                susceptible: np.ndarray, infected: np.ndarray,
                psi: np.ndarray, q: np.ndarray,
                eps1: float, eps2: float,
                c1: float, c2: float, *,
                mode: CostateMode = "full") -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``(dψ/dt, dq/dt)`` at one instant.

    Parameters mirror the Hamiltonian: current state ``(S, I)``, costates
    ``(ψ, q)``, controls ``(ε1, ε2)``, unit costs ``(c1, c2)``::

        dψ_i/dt = −∂H/∂S_i = −2 c1 ε1² S_i + ψ_i (λ_i Θ + ε1) − q_i λ_i Θ
        dq_i/dt = −∂H/∂I_i = −2 c2 ε2² I_i
                             − (φ_i/⟨k⟩) Σ_j (q_j − ψ_j) λ_j S_j + q_i ε2

    The values are the exact negation of :func:`adjoint_kernel`'s output.
    """
    kernel = adjoint_kernel(params, c1, c2, mode=mode)
    out = kernel(susceptible, infected, psi, q, eps1, eps2)
    n = params.n_groups
    return -out[:n], -out[n:]


def make_costate_rhs(params: RumorModelParameters,
                     state_lookup: Callable[[float], tuple[np.ndarray, np.ndarray]],
                     control_lookup: Callable[[float], tuple[float, float]],
                     c1: float, c2: float, *,
                     mode: CostateMode = "full") -> Callable[[float, np.ndarray], np.ndarray]:
    """Build a flat-vector adjoint RHS for the backward integrator.

    ``state_lookup(t)`` must return the interpolated ``(S, I)`` arrays and
    ``control_lookup(t)`` the control pair at time ``t``.  The returned
    callable operates on the flat costate ``[ψ..., q...]`` and returns
    ``[dψ/dt..., dq/dt...]``.
    """
    n = params.n_groups
    kernel = adjoint_kernel(params, c1, c2, mode=mode)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        susceptible, infected = state_lookup(t)
        eps1, eps2 = control_lookup(t)
        return -kernel(susceptible, infected, y[:n], y[n:], eps1, eps2)

    return rhs
