"""Constrained control-filter design.

The control filter w stacks K+1 FIR channels (one per reference
microphone plus one driven by the primary-signal estimate).  It is the
minimizer of the expected squared error signal plus a control-effort
penalty, subject to a spatial constraint built from the relative
impulse responses of the desired source:

    min_w  E{e^2(n)} + beta * w'w      s.t.  H'(q + G w) = f

with G the secondary-path convolution applied to each of the K+1
filter channels (one shared matrix, never a block-diagonal copy), q the
selection vector picking the current primary sample, H the stacked
ReIR convolution matrices and f the target response.  The closed form
is evaluated through two symmetric systems, with numpy.linalg only:

    Phi_rr = G' Phi_xx G + beta I          (Lanczos top sets beta; overwrites S,
                                            then its Cholesky factor overwrites
                                            it; one blocked substitution of the
                                            multi-RHS [A, phi])
    M      = H' G Phi_rr^-1 G' H + rho I   (Lanczos top sets rho; Cholesky factor
                                            in M's place, substituted per batch;
                                            rho = 0: eigh)

Both factors are ``convmat._cholesky``'s blocked factorization in place, so
no LAPACK copy of either matrix is made.

The design reads the inputs only through the correlations of the
filtered references r_c = g * x_c (S = G' Phi_xx G, G' Phi_xx q and
q' Phi_xx q) and the constraint only through G'H and H'q.
``DesignContext.from_correlations``, which ``ssanc design`` and ``ssanc
sweep`` use, takes them from the inputs' lag products and their first
and last L-1 samples (``_filtered_correlations``), which those commands
take from the two sources and the scene's responses without rendering
a microphone stack, and from the ReIRs' convolutions with g, so neither
the ((K+1) L)^2 matrix Phi_xx nor H is ever formed.  The dense route (``input_frames``,
``estimate_autocorrelation``, ``build_constraint``,
``DesignContext.from_dense``, ``design_control_filter``) builds both and
is the oracle the signals route is tested against.

rho = 0 is the exact equality-constrained solution and is what the KKT
oracle checks against; the inner matrix is then structurally
rank-deficient whenever the secondary path has more than one tap, which
is why the production path regularizes it with rho > 0.
"""

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ssanc.convmat import (
    _cholesky, _substitute, build_conv_matrix, build_q, edge_products, frames_from_first_rows, lagged_products,
    next_fast_len, per_channel,
)
from ssanc.reir import ReIRSet
from ssanc.scene import ConfigError, MicSignals, integer

logger = logging.getLogger(__name__)


class SingularSystemError(RuntimeError):
    """A factorization in the design failed; larger beta/rho usually fixes it."""


class InfeasibleConstraintError(RuntimeError):
    """The equality constraint is inconsistent after rank reduction."""


@dataclass(frozen=True, eq=False)
class Constraint:
    """Spatial constraint H'(q + G w) = f for one target definition and delay."""

    H: np.ndarray
    f: np.ndarray


@dataclass(frozen=True)
class DesignParams:
    """Effort weight and constraint regularizer.

    beta is the largest eigenvalue of G' Phi_xx G divided by beta_div;
    rho is the largest eigenvalue of the inner constraint matrix divided
    by rho_div unless set explicitly (rho = 0 is the exact
    equality-constrained solution).  Both rules make the design
    invariant to a global rescaling of the microphone signals.
    """

    rho: float | None = None
    beta_div: float = 500.0
    rho_div: float = 30000.0

    def __post_init__(self):
        if self.rho is not None and self.rho < 0.0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if self.beta_div <= 0.0 or self.rho_div <= 0.0:
            raise ValueError("beta_div and rho_div must be positive")


@dataclass(frozen=True, eq=False)
class DesignResult:
    """Designed (K+1, Lw) filter plus the diagnostics of the solve that produced it."""

    filter: np.ndarray
    beta: float
    rho: float
    constraint_residual: float
    predicted_error_power: float


@dataclass(frozen=True, eq=False)
class InputFrames:
    """The (C, N) channel stack and frame history L behind a set of stacked frames.

    ``estimate_autocorrelation`` sums them by ``_filtered_correlations`` at g = [1], never building them.
    """

    channels: np.ndarray
    L: int


def input_frames(mics: MicSignals, L: int) -> InputFrames:
    """Stacked frames of the observed inputs: K reference signals then the primary signal.

    Returns an ``InputFrames`` holding the (K+1, N) channel stack
    ``mics.s + mics.v`` (one sum, in the microphones' own layout) and
    L, not the frames: ``estimate_autocorrelation`` computes their
    product from the Toeplitz structure.
    """
    if mics.N < L:
        raise ValueError(f"signal length {mics.N} shorter than frame history {L}")
    return InputFrames(mics.s + mics.v, L)


def estimate_autocorrelation(frames: InputFrames) -> np.ndarray:
    """The dense oracle's Phi_xx: the mean of x(n) x'(n) over the N - L + 1 fully excited
    frames n = L-1 .. N-1 of ``input_frames``, which is the S of ``_filtered_correlations``
    at the one-tap secondary path g = [1] (r = x, Lw = L).  No frame is formed, and the
    result is exactly symmetric as computed.
    """
    return _filtered_correlations(*_stack_products(frames.channels, frames.L), np.ones(1), frames.L)[0]


def _constraint_matrix(reirs: ReIRSet, L: int) -> np.ndarray:
    """Vertical stack of transposed per-channel ReIR convolution matrices."""
    return np.vstack([build_conv_matrix(h_k, L).T for h_k in reirs.h])


TARGET_KINDS = ("error_mic", "reference_mic")


def target_mic(target_kind: str, spatial_ref: int) -> int:
    """Stack row whose desired component a target delays: -1 (error mic) or ``spatial_ref``."""
    if target_kind == "error_mic":
        return -1
    if target_kind == "reference_mic":
        return spatial_ref
    raise ValueError(f"unknown target_kind {target_kind!r}")


def max_delay(target_kind: str, Lh: int, L: int) -> int:
    """Largest target delay: a delayed reference pulse stays inside the Lh-tap ReIR span,
    a delayed error-mic ReIR inside the Lh + L - 1 target taps."""
    return L - 1 if target_mic(target_kind, 0) == -1 else Lh - 1


def _constraint_vector(reirs: ReIRSet, psi: np.ndarray, target_kind: str, delta: int, L: int) -> np.ndarray:
    """Target vector f: psi * (the target microphone's ReIR delayed by delta), Lh + L - 1 taps.

    The error microphone's ReIR is the last row of ``reirs.h``; the
    spatial reference's ReIR to itself is exactly the unit pulse.
    """
    Lh = reirs.Lh
    flen = Lh + L - 1
    bound = max_delay(target_kind, Lh, L)
    if not 0 <= delta <= bound:
        raise ValueError(f"{target_kind} target delay {delta} outside [0, {bound}]")
    mic = target_mic(target_kind, reirs.spatial_ref)
    reir = np.eye(1, Lh)[0] if mic == reirs.spatial_ref else reirs.h[mic]
    proto = np.zeros(flen)
    proto[delta : delta + Lh] = reir[: flen - delta]  # a late pulse's zero tail may not fit
    return np.convolve(psi, proto)[:flen]


def build_constraint(
    reirs: ReIRSet, psi, target_kind: str, delta: int, Lw: int, Lg: int
) -> Constraint:
    """Assemble the spatial-constraint matrix H and target vector f.

    target_kind selects where the desired component should be
    preserved: "error_mic" targets the (delayed) desired component at
    the error microphone, "reference_mic" the delayed desired component
    at the spatial reference microphone.  psi is the spectral-weighting
    taps applied to the target; pass [1] to disable weighting.
    """
    if Lw < 1 or Lg < 1:
        raise ValueError("Lw and Lg must be >= 1")
    L = Lg + Lw - 1
    psi = np.atleast_1d(np.asarray(psi, dtype=float)).ravel()
    if psi.size < 1 or psi.size > L:
        raise ValueError(f"psi must have between 1 and L={L} taps, got {psi.size}")
    H = _constraint_matrix(reirs, L)
    f = _constraint_vector(reirs, psi, target_kind, int(delta), L)
    return Constraint(H=H, f=f)


def _projected_constraint(reirs: ReIRSet, g: np.ndarray, Lw: int, out: np.ndarray | None = None) -> np.ndarray:
    """A = Gt'H without H: block k is the transposed convolution matrix of h_k * g,
    written a block at a time into out if given."""
    if out is None:
        out = np.empty((reirs.h.shape[0] * Lw, reirs.Lh + g.shape[0] + Lw - 2))
    for rows, h_k in zip(np.split(out, reirs.h.shape[0]), reirs.h):
        rows[:] = build_conv_matrix(np.convolve(h_k, g), Lw).T
    return out


def _lanczos_max(M: np.ndarray) -> float:
    """lambda_max of the symmetric M: the top Ritz value of min(40, n) Lanczos steps
    from a fixed start vector, each reorthogonalized twice against all earlier ones
    (Golub & Van Loan, Matrix Computations, 10.1); stops early at an invariant subspace."""
    m = min(40, M.shape[0])
    Q, T = np.zeros((m, M.shape[0])), np.zeros((m, m))
    v = np.random.default_rng(0).standard_normal(M.shape[0])
    Q[0] = v / np.linalg.norm(v)
    for j in range(m):
        w = M @ Q[j]
        T[j, j] = Q[j] @ w
        for _ in range(2):  # twice is enough
            w -= Q[: j + 1].T @ (Q[: j + 1] @ w)
        b = np.linalg.norm(w)
        if j + 1 == m or b == 0.0:
            break
        T[j, j + 1] = T[j + 1, j] = b
        Q[j + 1] = w / b
    return float(np.linalg.eigvalsh(T[: j + 1, : j + 1])[-1])


class DesignContext:
    """Factorized design state shared across target vectors.

    Everything except f is independent of the target delay, so a sweep
    builds this once and solves all its target vectors in one call.  The
    design reads the inputs only through three statistics of the frames
    n = L-1 .. N-1, those of the filtered references r_c = g * x_c:

        S = Gt' Phi_xx Gt      phi = Gt' Phi_xx q      power = q' Phi_xx q

    and the constraint only through A = Gt'H and H'q.  ``from_correlations``
    takes them from the signals' correlations and the ReIRs (production);
    ``from_dense`` projects a dense Phi_xx and H (the oracle).  Both
    share this factorization, and each consumes the S and the stacked
    right-hand sides [A, phi] it passes: the Lanczos top of S sets beta,
    Phi_rr = S + beta I overwrites S, and its Cholesky factor Lc, which is
    also the definiteness check, overwrites Phi_rr (``_cholesky``) and
    turns [A, phi] in place into Y = Lc^-1 [A, phi] = [YA, yphi]
    (``_substitute``).  Then M0 = A' Phi_rr^-1 A = YA'YA, exactly
    symmetric as computed, whose Lanczos top sets rho, and ``solve``
    substitutes with the Cholesky factor of M0 + rho I, formed in M0's
    place (rho = 0: the pseudo-inverse of M0, by ``eigh``).  So the
    context holds one ((K+1) Lw)^2 matrix, Lc, one (K+1) Lw x (F + 1), Y,
    and one F x F, the inner factor (``sweep._design_bytes``); no A, S,
    copy or LU factor is kept.
    """

    def __init__(self, S, rhs, power: float, Hq, params: DesignParams, K: int, Lw: int):
        self.K = K
        self.Lw = Lw
        self.phi = rhs[:, -1].copy()  # the right-hand sides are substituted in place below
        self.power = power
        self.Hq = Hq

        self.beta = max(_lanczos_max(S), 0.0) / params.beta_div
        if self.beta <= 0.0:
            raise SingularSystemError(
                f"beta = {self.beta:g} is not positive; the effort-weighted covariance "
                "is degenerate (silent inputs?)"
            )

        S.flat[:: S.shape[0] + 1] += self.beta  # S is Phi_rr = S + beta I from here on
        try:
            self.Lc = _cholesky(S)  # Phi_rr = Lc Lc', in S's place
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"cannot factorize Phi_rr with beta={self.beta:g}; lower beta_div"
            ) from exc
        Y = _substitute(self.Lc, rhs)
        self.YA = Y[:, :-1]  # Lc^-1 G'H
        self.yphi = Y[:, -1]  # Lc^-1 phi
        self.Aphi = self.YA.T @ self.yphi  # A' Phi_rr^-1 phi
        M0 = self.YA.T @ self.YA  # exactly symmetric (BLAS syrk)

        self.rho = params.rho if params.rho is not None else max(_lanczos_max(M0), 0.0) / params.rho_div
        if self.rho > 0.0:
            M0.flat[:: M0.shape[0] + 1] += self.rho
            try:
                self._inner = _cholesky(M0)  # M0 + rho I = Lm Lm' in M0's place, substituted in each ``solve``
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(
                    f"cannot factorize the inner constraint matrix with rho={self.rho:g}; "
                    "increase rho"
                ) from exc
        else:
            # exact equality-constrained solution: the inner matrix is
            # generally rank-deficient, so invert it on its range only
            vals, vecs = np.linalg.eigh(M0)
            cut = max(vals[-1], 0.0) * vals.size * np.finfo(float).eps
            inv = np.where(vals > cut, 1.0 / np.where(vals > cut, vals, 1.0), 0.0)
            self._inner = (vecs * inv) @ vecs.T  # the pseudo-inverse of M0 on its range

    @classmethod
    def from_correlations(cls, S, phi, power: float, g, reirs: ReIRSet, params: DesignParams, Lw: int) -> "DesignContext":
        """The design of (K+1, Lw) filters from the S, phi and power of the observed
        signals (``_filtered_correlations``), of which it consumes S: A comes from the
        ReIRs (``_projected_constraint``), and H'q is the error microphone's ReIR.
        Neither Phi_xx nor H is formed, and no signal is read."""
        g = np.asarray(g, dtype=float).ravel()
        Hq = np.concatenate([reirs.h[-1], np.zeros(g.shape[0] + Lw - 2)])
        rhs = np.empty((phi.shape[0], Hq.shape[0] + 1))  # [A, phi], with no second copy of A
        _projected_constraint(reirs, g, Lw, out=rhs[:, :-1])
        rhs[:, -1] = phi
        return cls(S, rhs, power, Hq, params, reirs.h.shape[0] - 1, Lw)

    @classmethod
    def from_dense(cls, phi_xx, g, H, params: DesignParams, K: int, Lw: int) -> "DesignContext":
        """The design for a dense (K+1)L x (K+1)L Phi_xx and constraint matrix H,
        projected by Gt = I_{K+1} (x) G, one shared G: the oracle of ``from_correlations``."""
        phi_xx = np.asarray(phi_xx, dtype=float)
        g = np.asarray(g, dtype=float).ravel()
        Lg = g.shape[0]
        L = Lg + Lw - 1
        dim = (K + 1) * L
        if phi_xx.shape != (dim, dim):
            raise ValueError(
                f"phi_xx has shape {phi_xx.shape}, expected ({dim}, {dim}) "
                f"for K={K}, Lw={Lw}, Lg={Lg}"
            )
        if H.shape[0] != dim:
            raise ValueError(f"constraint H has {H.shape[0]} rows, expected {dim}")
        Gt = build_conv_matrix(g, Lw).T
        q = build_q(K, L)
        # Gt' Phi_xx' Gt: the transpose of Gt' Phi_xx Gt, with the same symmetric part
        S = per_channel(Gt, per_channel(Gt, phi_xx).T)
        phi_q = phi_xx @ q
        return cls(
            (S + S.T) / 2.0, np.column_stack([per_channel(Gt, H), per_channel(Gt, phi_q)]), float(q @ phi_q),
            H.T @ q, params, K, Lw,
        )

    def solve(self, f: np.ndarray):
        """Design the filter for one target vector, or for each column of a matrix.

        A (flen,) vector returns its ``DesignResult`` and raises
        ``SingularSystemError`` if the taps come out non-finite.  A
        (flen, D) matrix is solved in one multi-right-hand-side pass and
        returns a list of D entries, each the ``DesignResult`` of its
        column or, where that column's taps are non-finite, the
        ``SingularSystemError`` it would have raised.

        With Y = Lc^-1 [A, phi] = [YA, yphi], mu = (M0 + rho I)^-1 (f - H'q
        + A' Phi_rr^-1 phi) takes two substitutions with the factor of
        M0 + rho I, V = YA mu - yphi = Lc^-1 (A mu - phi), A'w = YA'V, and
        the taps w = Lc^-T V one backward substitution; each reads its own
        column only, so a non-finite column fails only its own design.  The
        residual ||H'q + A'w - f|| and the predicted error power
        power + 2 phi'w + w'Sw = power + phi'w + (A'w)'mu - beta w'w (as
        Phi_rr w = A mu - phi) need no S, A, H or Phi_xx.
        """
        F = np.asarray(f, dtype=float)
        columns = F if F.ndim == 2 else F[:, None]
        s = columns - self.Hq[:, None] + self.Aphi[:, None]
        if self.rho > 0.0:
            mu = _substitute(self._inner, _substitute(self._inner, s), transpose=True)
        else:
            mu = self._inner @ s
        V = self.YA @ mu
        V -= self.yphi[:, None]
        AW = self.YA.T @ V
        W = _substitute(self.Lc, V, transpose=True)
        r = self.Hq[:, None] + AW
        r -= columns
        residuals = np.linalg.norm(r, axis=0)
        AWmu = np.einsum("ij,ij->j", AW, mu)
        del r, AW, mu, s  # before W * W and the per-column copy of W; with rho > 0, mu is s
        predicted = self.power + self.phi @ W + AWmu - self.beta * (W * W).sum(axis=0)
        results = []
        for j, w_flat in enumerate(np.ascontiguousarray(W.T)):
            if not np.all(np.isfinite(w_flat)):
                results.append(SingularSystemError(
                    "design produced non-finite taps; increase beta/rho or check inputs"
                ))
                continue
            results.append(DesignResult(
                filter=w_flat.reshape(self.K + 1, self.Lw),
                beta=float(self.beta),
                rho=float(self.rho),
                constraint_residual=float(residuals[j]),
                predicted_error_power=float(predicted[j]),
            ))
        if F.ndim == 2:
            return results
        if isinstance(results[0], SingularSystemError):
            raise results[0]
        return results[0]


# the dense oracle constructor under the name the benchmark's traced pass resolves
_DesignContext = DesignContext.from_dense


def _filtered_correlations(c, head, tail, N: int, g: np.ndarray, Lw: int) -> tuple[np.ndarray, np.ndarray, float]:
    """S, phi and power of ``DesignContext.from_correlations``: the means of r(n) r(n)',
    r(n) p(n) and p(n)^2 over the frames n = L-1 .. N-1, for the filtered
    references r_c = g * x_c from rest, r(n) their stacked Lw-sample
    histories, and the primary signal p = x_K, of a (C, N) stack x read
    only through its lag products c_ab(j) = sum_n x_a(n) x_b(n-j) over
    all n, j < L, and its first (head) and last (tail) L-1 samples: the
    design takes them from the sources (``convmat._FilteredEnergy``), the
    dense oracle from the stack (``_stack_products``).

    r is never formed: with gamma the autocorrelation of g, r_a(n) r_b(n-j)
    sums over all n to sum_k gamma(k) c_ab(j-k).  Outside the frames, r is
    read only before n = L-1 and after n = N-Lw, from the head and the
    tail: their products are subtracted from the first rows of S, and the
    rest of S follows along its diagonals (``frames_from_first_rows``).
    phi is sum_m g(m) c_Kc(j+m) less the same head, and power is c_KK(0)
    less the head's.  At g = [1], S is the dense oracle's Phi_xx
    (``estimate_autocorrelation``).
    """
    C, Lg = c.shape[0], g.shape[0]
    L = Lg + Lw - 1
    lags = np.concatenate([c.transpose(1, 0, 2)[:, :, Lg - 1 : 0 : -1], c], axis=-1)  # -(Lg-1) .. L-1
    full = np.lib.stride_tricks.sliding_window_view(lags, 2 * Lg - 1, axis=-1) @ np.correlate(g, g, "full")
    # r(n) for n < L-1 (head) and for N-Lw < n < N+Lg-1 (tail), each from L-1 samples of x
    nfft = next_fast_len(L + Lg - 1)
    ends = np.fft.irfft(np.fft.rfft(np.stack([head, tail]), nfft) * np.fft.rfft(g, nfft), nfft)
    r_head, r_tail = ends[0, :, : L - 1], ends[1, :, Lg - 1 : L + Lg - 2]
    first = full - edge_products(r_head, r_head, 0, Lw) - edge_products(r_tail, r_tail, Lw - 1, Lw)
    S = frames_from_first_rows(first, r_head[:, ::-1][:, : Lw - 1], r_tail[:, : Lw - 1][:, ::-1])
    phi = np.lib.stride_tricks.sliding_window_view(c[-1], Lg, axis=-1) @ g
    phi -= edge_products(head[-1:], r_head, 0, Lw)[0]
    frames = N - L + 1
    S = S.reshape(C * Lw, C * Lw)
    S /= frames
    return S, phi.reshape(C * Lw) / frames, float(c[-1, -1, 0] - np.vdot(head[-1], head[-1])) / frames


def _stack_products(x: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The inputs of ``_filtered_correlations`` read off a (C, N) stack x itself: one
    ``lagged_products`` pass over x, its first and last L-1 samples, and N."""
    N = x.shape[1]
    if N < L:
        raise ValueError(f"signal length {N} shorter than frame history {L}")
    return lagged_products(x, x, L), x[:, : L - 1], x[:, N - L + 1 :], N


def design_control_filter(
    phi_xx, g, constraint: Constraint, params: DesignParams, K: int, Lw: int
) -> DesignResult:
    """Evaluate the closed-form constrained design for one constraint.

    Parameters
    ----------
    phi_xx : (K+1)L x (K+1)L sample autocorrelation of the stacked input,
        with L = len(g) + Lw - 1.
    g : secondary-path taps.
    constraint : output of ``build_constraint``.
    params : the divisors of beta and rho, and an optional explicit rho.

    Returns a DesignResult carrying the filter, the resolved beta/rho,
    the constraint residual ||H'(q + G w) - f|| and the predicted error
    power (q + G w)' Phi_xx (q + G w): the dense oracle's one-shot design
    (``DesignContext.from_dense``).
    """
    return DesignContext.from_dense(phi_xx, g, constraint.H, params, K, Lw).solve(constraint.f)


def kkt_oracle(phi_xx, g, H, f, beta: float, K: int, Lw: int) -> np.ndarray:
    """Exact equality-constrained (K+1, Lw) minimizer via a direct KKT saddle-point solve.

    Verification-only counterpart of ``DesignContext`` at rho = 0, for
    the constraint H'(q + G w) = f.  The constraint rows C = H'Gt are
    reduced to their row space by an SVD, which shares nothing with the
    design's factorizations, before the saddle solve; if the solution
    misses the full constraint, the constraint set is infeasible and an
    InfeasibleConstraintError is raised.
    """
    phi_xx = np.asarray(phi_xx, dtype=float)
    g = np.asarray(g, dtype=float).ravel()
    if beta <= 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    L = g.shape[0] + Lw - 1
    # the dense block-diagonal operator, independent of the per-channel helper
    Gt = np.kron(np.eye(K + 1), build_conv_matrix(g, Lw))
    q = build_q(K, L)
    C = H.T @ Gt  # (Lh+L-1) x (K+1)Lw
    v = f - H.T @ q

    U, sv, Vt = np.linalg.svd(C, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * max(C.shape) * np.finfo(float).eps))
    if rank < C.shape[0]:
        logger.info("reducing %d constraint rows to their rank %d", C.shape[0], rank)
    C_r = sv[:rank, None] * Vt[:rank]  # U_r'C
    v_r = U[:, :rank].T @ v

    n = (K + 1) * Lw
    kkt = np.zeros((n + rank, n + rank))
    kkt[:n, :n] = 2.0 * (Gt.T @ phi_xx @ Gt + beta * np.eye(n))
    kkt[:n, n:] = C_r.T
    kkt[n:, :n] = C_r
    rhs = np.concatenate([-2.0 * Gt.T @ (phi_xx @ q), v_r])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"KKT system is singular: {exc}") from exc
    w = sol[:n]

    residual = float(np.linalg.norm(C @ w - v))
    if residual > 1e-8 * (1.0 + float(np.linalg.norm(v))):
        raise InfeasibleConstraintError(
            f"constraints inconsistent after rank reduction (residual {residual:.3g})"
        )
    return w.reshape(K + 1, Lw)


def save_filter_json(result: DesignResult, path) -> None:
    """Export a designed filter (channel-major taps) plus the diagnostics of its solve."""
    w = result.filter
    payload = {
        "K": w.shape[0] - 1,
        "Lw": w.shape[1],
        "w": [list(map(float, row)) for row in w],
        "diagnostics": {
            "beta": result.beta,
            "rho": result.rho,
            "constraint_residual": result.constraint_residual,
            "predicted_error_power": result.predicted_error_power,
            "filter_norm": float(np.linalg.norm(w)),
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_filter_json(path) -> np.ndarray:
    """The (K+1, Lw) taps of a filter file; refuses, as a ``ConfigError``, any but a finite
    ``w`` of the shape its header states, with integers ``K`` and ``Lw`` >= 1 (``scene.integer``)."""
    payload = json.loads(Path(path).read_text())
    K, Lw = (integer(key, payload[key]) for key in ("K", "Lw"))
    w = np.asarray(payload["w"], dtype=float)
    if w.shape != (K + 1, Lw) or Lw < 1:
        raise ConfigError(f"w must be a (K+1, Lw) = ({K + 1}, {Lw}) array with Lw >= 1, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ConfigError("control filter taps must be finite")
    return w
