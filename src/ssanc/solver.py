"""Constrained control-filter design.

The control filter w stacks K+1 FIR channels (one per reference
microphone plus one driven by the primary-signal estimate).  It is the
minimizer of the expected squared error signal plus a control-effort
penalty, subject to a spatial constraint built from the relative
impulse responses of the desired source:

    min_w  E{e^2(n)} + beta * w'w      s.t.  H'(q + G w) = f

with G the block-diagonal secondary-path convolution matrix, q the
selection vector picking the current primary sample, H the stacked
ReIR convolution matrices and f the target response.  The closed form
is evaluated through two symmetric factorizations:

    Phi_rr = G' Phi_xx G + beta I          (SPD for beta > 0)
    M      = H' G Phi_rr^-1 G' H + rho I   (Cholesky for rho > 0,
                                            eigen pseudo-inverse at rho = 0)

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
import scipy.linalg

from ssanc import wavio
from ssanc.convmat import (
    block_diag_secondary,
    build_conv_matrix,
    build_q,
    frame_products,
    unit_pulse,
)
from ssanc.reir import ReIRSet
from ssanc.scene import MicSignals

logger = logging.getLogger(__name__)


class SingularSystemError(RuntimeError):
    """A factorization in the design failed; larger beta/rho usually fixes it."""


class ConvergenceError(RuntimeError):
    """Power iteration did not meet its tolerance; carries the best estimate."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


class InfeasibleConstraintError(RuntimeError):
    """The equality constraint is inconsistent after rank reduction."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class ControlFilter:
    """Stacked multichannel FIR control filter, one row of Lw taps per channel."""

    w: np.ndarray

    def __post_init__(self):
        if self.w.ndim != 2:
            raise ValueError("w must be a (K+1, Lw) array")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("control filter taps must be finite")

    @property
    def K(self) -> int:
        return self.w.shape[0] - 1

    @property
    def Lw(self) -> int:
        return self.w.shape[1]

    @property
    def stacked(self) -> np.ndarray:
        return self.w.ravel()


@dataclass(frozen=True, eq=False)
class Constraint:
    """Spatial constraint H'(q + G w) = f for one target definition and delay."""

    H: np.ndarray
    f: np.ndarray
    target_kind: str
    delta: int
    psi: np.ndarray


@dataclass(frozen=True)
class DesignParams:
    """Effort weight and constraint regularizer.

    beta / rho set explicit values; when left as None they are derived
    from the largest eigenvalue of the respective matrix divided by
    beta_div / rho_div, which makes the design invariant to a global
    rescaling of the microphone signals.
    """

    beta: float | None = None
    rho: float | None = None
    beta_div: float = 500.0
    rho_div: float = 30000.0

    def __post_init__(self):
        if self.beta is not None and self.beta <= 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.rho is not None and self.rho < 0.0:
            raise ValueError(f"rho must be >= 0, got {self.rho}")
        if self.beta_div <= 0.0 or self.rho_div <= 0.0:
            raise ValueError("beta_div and rho_div must be positive")


@dataclass(frozen=True, eq=False)
class DesignResult:
    """Designed filter plus the diagnostics of the solve that produced it."""

    filter: ControlFilter
    beta: float
    rho: float
    constraint_residual: float
    predicted_error_power: float


def stacked_frames(channels, L: int, block: int = 16384):
    """Yield blocks of stacked input vectors x(n) as (block, n_channels*L) arrays.

    Each frame stacks, channel by channel, the L-sample history
    [c(n), c(n-1), ..., c(n-L+1)] for n = L-1 .. N-1 (only fully
    excited frames, no zero padding).
    """
    channels = [np.asarray(c, dtype=float).ravel() for c in channels]
    N = channels[0].shape[0]
    if any(c.shape[0] != N for c in channels):
        raise ValueError("all channels must have the same length")
    if N < L:
        raise ValueError(f"signal length {N} shorter than frame history {L}")
    views = [np.lib.stride_tricks.sliding_window_view(c, L)[:, ::-1] for c in channels]
    n_frames = N - L + 1
    for start in range(0, n_frames, block):
        stop = min(start + block, n_frames)
        yield np.hstack([v[start:stop] for v in views])


@dataclass(frozen=True, eq=False)
class InputFrames:
    """The (C, N) channel stack and frame history L behind a set of stacked frames.

    Iterating yields the explicit frame blocks of ``stacked_frames``;
    ``estimate_autocorrelation`` never builds them.
    """

    channels: np.ndarray
    L: int
    block: int = 16384

    def __iter__(self):
        return stacked_frames(self.channels, self.L, block=self.block)


def input_frames(mics: MicSignals, L: int, block: int = 16384) -> InputFrames:
    """Stacked frames of the observed inputs: K reference signals then the primary signal.

    Returns an ``InputFrames`` holding the channel stack, not the
    frames: ``estimate_autocorrelation`` computes their product from the
    Toeplitz structure, and iterating still yields the frame blocks.
    """
    if mics.N < L:
        raise ValueError(f"signal length {mics.N} shorter than frame history {L}")
    return InputFrames(np.vstack([mics.x, mics.p[None, :]]), L, block)


def estimate_autocorrelation(x_frames) -> np.ndarray:
    """Sample-average autocorrelation matrix (1/N) sum_n x(n) x'(n), symmetrized.

    For the ``InputFrames`` returned by ``input_frames`` the sum over
    the N - L + 1 fully excited frames comes from the channels'
    cross-correlations (``convmat.frame_products``) without forming any
    frame, and is exactly symmetric as computed.  A single
    (n_frames, dim) array or an iterable of such chunks is summed
    explicitly, chunk by chunk; that is the reference the structural
    form is tested against.
    """
    if isinstance(x_frames, InputFrames):
        C, N = x_frames.channels.shape
        L = x_frames.L
        phi = frame_products(x_frames.channels, L).reshape(C * L, C * L)
        phi /= N - L + 1
        return phi
    if isinstance(x_frames, np.ndarray):
        if x_frames.ndim == 1:
            x_frames = x_frames[None, :]
        chunks = [x_frames]
    else:
        chunks = x_frames

    acc = None
    count = 0
    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=float)
        if chunk.ndim != 2:
            raise ValueError("frames must be 2-D (n_frames, dim)")
        if acc is None:
            acc = np.zeros((chunk.shape[1], chunk.shape[1]))
        elif chunk.shape[1] != acc.shape[0]:
            raise ValueError(
                f"inconsistent frame length: {chunk.shape[1]} != {acc.shape[0]}"
            )
        acc += chunk.T @ chunk
        count += chunk.shape[0]
    if count == 0:
        raise ValueError("need at least one frame")
    phi = acc / count
    return (phi + phi.T) / 2.0


def _constraint_matrix(reirs: ReIRSet, L: int) -> np.ndarray:
    """Vertical stack of transposed per-channel ReIR convolution matrices."""
    return np.vstack([build_conv_matrix(h_k, L).data.T for h_k in reirs.h])


def _constraint_vector(reirs: ReIRSet, psi: np.ndarray, target_kind: str, delta: int, L: int) -> np.ndarray:
    Lh = reirs.Lh
    flen = Lh + L - 1
    if target_kind == "reference_mic":
        if not 0 <= delta < Lh:
            raise ValueError(
                f"reference-microphone target delay {delta} outside [0, {Lh}); "
                "the delayed pulse must stay inside the ReIR span"
            )
        proto = unit_pulse(delta, flen)
    elif target_kind == "error_mic":
        if not (0 <= delta and delta + Lh <= flen):
            raise ValueError(
                f"error-microphone target delay {delta} outside [0, {flen - Lh}]; "
                "the delayed ReIR must stay causal and in range"
            )
        proto = np.zeros(flen)
        proto[delta : delta + Lh] = reirs.h[-1]
    else:
        raise ValueError(f"unknown target_kind {target_kind!r}")
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
    return Constraint(H=H, f=f, target_kind=target_kind, delta=int(delta), psi=psi)


def largest_eigenvalue(A, tol: float = 1e-10, max_iter: int = 100000) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Stops when the relative change of the Rayleigh quotient drops below
    tol.  Raises ConvergenceError (carrying the best estimate) if that
    does not happen within max_iter iterations.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if not np.all(np.isfinite(A)):
        raise ValueError("A must be finite")
    S = (A + A.T) / 2.0
    n = S.shape[0]

    x = np.random.default_rng(0).standard_normal(n)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(max_iter):
        y = S @ x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0  # x in the null space of a PSD matrix: lam_max could still be 0
        lam_new = float(x @ y)
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return max(lam_new, 0.0)
        lam = lam_new
        x = y / ny
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations (best {lam:.6g})",
        best_estimate=max(lam, 0.0),
    )


class _DesignContext:
    """Factorized design state shared across constraint vectors.

    Everything except f is independent of the target delay, so a sweep
    assembles this once and solves per delta.  ``design_control_filter``
    is the one-shot wrapper around the same code path.
    """

    def __init__(self, phi_xx, g, H, params: DesignParams, K: int, Lw: int):
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

        self.K = K
        self.Lw = Lw
        self.L = L
        self.phi_xx = phi_xx
        self.H = H
        self.Gt = block_diag_secondary(build_conv_matrix(g, Lw), K)
        self.q = build_q(K, L).flat

        S = self.Gt.T @ phi_xx @ self.Gt
        S = (S + S.T) / 2.0
        self.beta = params.beta if params.beta is not None else largest_eigenvalue(S) / params.beta_div
        if self.beta <= 0.0:
            raise SingularSystemError(
                f"beta = {self.beta:g} is not positive; the effort-weighted covariance "
                "is degenerate (silent inputs?)"
            )
        try:
            cho_rr = scipy.linalg.cho_factor(S + self.beta * np.eye(S.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"cannot factorize Phi_rr with beta={self.beta:g}; increase beta"
            ) from exc

        A = self.Gt.T @ H  # (K+1)Lw x (Lh+L-1)
        phi = self.Gt.T @ (phi_xx @ self.q)
        sol = scipy.linalg.cho_solve(cho_rr, np.column_stack([A, phi]))
        self.XA = sol[:, :-1]  # Phi_rr^-1 G'H
        self.xphi = sol[:, -1]  # Phi_rr^-1 phi
        M0 = A.T @ self.XA
        self.M0 = (M0 + M0.T) / 2.0
        self.A = A
        self.Hq = H.T @ self.q

        self.rho = params.rho if params.rho is not None else largest_eigenvalue(self.M0) / params.rho_div
        if self.rho > 0.0:
            try:
                self._cho_M = scipy.linalg.cho_factor(
                    self.M0 + self.rho * np.eye(self.M0.shape[0])
                )
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(
                    f"cannot factorize the inner constraint matrix with rho={self.rho:g}; "
                    "increase rho"
                ) from exc
            self._pinv = None
        else:
            # exact equality-constrained solution: the inner matrix is PSD and
            # generally rank-deficient, so invert it on its range only
            vals, vecs = np.linalg.eigh(self.M0)
            cut = max(vals[-1], 0.0) * self.M0.shape[0] * np.finfo(float).eps
            inv = np.where(vals > cut, 1.0 / np.where(vals > cut, vals, 1.0), 0.0)
            self._pinv = (vecs, inv)
            self._cho_M = None

    def _solve_inner(self, s: np.ndarray) -> np.ndarray:
        if self._cho_M is not None:
            return scipy.linalg.cho_solve(self._cho_M, s)
        vecs, inv = self._pinv
        return vecs @ (inv * (vecs.T @ s))

    def solve(self, f: np.ndarray) -> DesignResult:
        v = f - self.Hq
        mu = self._solve_inner(v + self.A.T @ self.xphi)
        w_flat = -self.xphi + self.XA @ mu
        if not np.all(np.isfinite(w_flat)):
            raise SingularSystemError(
                "design produced non-finite taps; increase beta/rho or check inputs"
            )
        u = self.q + self.Gt @ w_flat
        residual = float(np.linalg.norm(self.H.T @ u - f))
        predicted = float(u @ (self.phi_xx @ u))
        return DesignResult(
            filter=ControlFilter(w=w_flat.reshape(self.K + 1, self.Lw)),
            beta=float(self.beta),
            rho=float(self.rho),
            constraint_residual=residual,
            predicted_error_power=predicted,
        )


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
    params : effort weight / regularizer, explicit or divisor-derived.

    Returns a DesignResult carrying the filter, the resolved beta/rho,
    the constraint residual ||H'(q + G w) - f|| and the predicted error
    power (q + G w)' Phi_xx (q + G w).
    """
    ctx = _DesignContext(phi_xx, g, constraint.H, params, K, Lw)
    return ctx.solve(constraint.f)


def kkt_oracle(phi_xx, g, constraint: Constraint | None, beta: float, K: int, Lw: int) -> ControlFilter:
    """Exact equality-constrained minimizer via a direct KKT saddle-point solve.

    Verification-only counterpart of ``design_control_filter`` (the
    rho = 0 case).  Linearly dependent constraint rows are dropped by a
    rank-revealing QR before the saddle solve; if the dropped rows are
    inconsistent with the solution, the constraint set is infeasible
    and an InfeasibleConstraintError is raised.
    """
    phi_xx = np.asarray(phi_xx, dtype=float)
    g = np.asarray(g, dtype=float).ravel()
    if beta <= 0.0:
        raise ValueError(f"beta must be > 0, got {beta}")
    L = g.shape[0] + Lw - 1
    Gt = block_diag_secondary(build_conv_matrix(g, Lw), K)
    q = build_q(K, L).flat
    Phi_rr = Gt.T @ phi_xx @ Gt + beta * np.eye((K + 1) * Lw)
    phi = Gt.T @ (phi_xx @ q)

    if constraint is None or constraint.H.size == 0:
        return ControlFilter(w=np.linalg.solve(Phi_rr, -phi).reshape(K + 1, Lw))

    C = constraint.H.T @ Gt  # (Lh+L-1) x (K+1)Lw
    v = constraint.f - constraint.H.T @ q

    _, R, piv = scipy.linalg.qr(C.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    cut = diag[0] * max(C.shape) * np.finfo(float).eps if diag.size and diag[0] > 0 else 0.0
    rank = int(np.sum(diag > cut))
    if rank < C.shape[0]:
        logger.info("dropping %d dependent constraint rows (rank %d of %d)",
                    C.shape[0] - rank, rank, C.shape[0])
    keep = piv[:rank]
    C_r = C[keep]
    v_r = v[keep]

    n = (K + 1) * Lw
    kkt = np.zeros((n + rank, n + rank))
    kkt[:n, :n] = 2.0 * Phi_rr
    kkt[:n, n:] = C_r.T
    kkt[n:, :n] = C_r
    rhs = np.concatenate([-2.0 * phi, v_r])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"KKT system is singular: {exc}") from exc
    w = sol[:n]

    full_residual = float(np.linalg.norm(C @ w - v))
    if full_residual > 1e-8 * (1.0 + float(np.linalg.norm(v))):
        raise InfeasibleConstraintError(
            f"constraints inconsistent after rank reduction (residual {full_residual:.3g})",
            residual=full_residual,
        )
    return ControlFilter(w=w.reshape(K + 1, Lw))


def save_filter_json(result_or_filter, path) -> None:
    """Export a control filter (channel-major taps) plus diagnostics if available."""
    if isinstance(result_or_filter, DesignResult):
        flt = result_or_filter.filter
        diag = {
            "beta": result_or_filter.beta,
            "rho": result_or_filter.rho,
            "constraint_residual": result_or_filter.constraint_residual,
            "predicted_error_power": result_or_filter.predicted_error_power,
            "filter_norm": float(np.linalg.norm(flt.stacked)),
        }
    else:
        flt = result_or_filter
        diag = {"filter_norm": float(np.linalg.norm(flt.stacked))}
    payload = {
        "K": flt.K,
        "Lw": flt.Lw,
        "w": [list(map(float, row)) for row in flt.w],
        "diagnostics": diag,
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_filter_json(path) -> ControlFilter:
    payload = json.loads(Path(path).read_text())
    return ControlFilter(w=np.asarray(payload["w"], dtype=float))


def save_filter_wav(flt: ControlFilter, path, fs: int) -> None:
    """Export as a multichannel float WAV, one channel per filter channel."""
    wavio.write_wav(path, fs, flt.w.T)
