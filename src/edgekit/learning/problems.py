"""Local quadratic objectives, the centralized consensus oracle and the
objective error of a run.

Each worker n holds f_n(theta) = ||A_n theta - b_n||^2 + mu ||theta||^2.
A scalar quadratic (theta - a)^2 is the special case A = [[1]], b = [a].
Restricting to quadratics keeps every primal update an exact linear solve,
and gives the objective error around the optimum theta* a closed form with
no difference of objectives in it (`ProblemStack`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import sequential_sum

TRACE_BLOCK = 16  # model stacks whose errors are evaluated together: a run's history block


class SingularSystem(RuntimeError):
    pass


@dataclass(frozen=True)
class LocalProblem:
    """One worker's least-squares objective."""

    A: np.ndarray  # (samples, d)
    b: np.ndarray  # (samples,)
    reg: float = 0.0

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b row counts differ")
        if A.shape[0] < 1:
            raise ValueError("need at least one sample per worker")
        if self.reg < 0:
            raise ValueError("regularization weight must be >= 0")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @classmethod
    def scalar_quadratic(cls, a: float, reg: float = 0.0) -> "LocalProblem":
        """f(theta) = (theta - a)^2."""
        return cls(A=np.array([[1.0]]), b=np.array([float(a)]), reg=reg)


class ProblemStack:
    """N workers' problems around their consensus optimum, as stacked arrays.

    Workers are rows 0..N-1.  With e_n = theta_n - theta* and the Gram pair
    (H_n, g_n), each worker's objective error is, exactly,

        f_n(theta_n) - f_n(theta*) = e_n^T H_n e_n + c_n . e_n,
        c_n = 2 (H_n theta* - g_n),

    so the error of a run is evaluated in this form rather than as a
    difference of two objectives: it is exactly 0.0 at theta*, and a small
    error is not the cancellation noise of F* - F*.

    Built once per run: the Gram pairs, one stacked np.matmul (a syrk per
    worker, as A^T A is) and one np.matvec (a gemv per worker, as A^T b is)
    for each group of problems of one (samples, d) shape; theta* from their
    sums; f* from the same stacks, one gemv and one ddot per worker; the
    slopes c_n; and the buffers `errors` writes into, among them theta* and
    the slopes laid out in the shape of the block they are combined with.
    `errors` evaluates a whole block of TRACE_BLOCK model stacks of each of a
    run's `points` with one gemm per worker and point.
    """

    def __init__(self, problems: list[LocalProblem], points: int = 1):
        self.n = len(problems)
        self.dim = problems[0].dim
        groups = _by_shape(problems)
        self.gram = _grams(groups, self.n, self.dim)  # stacked (H, g): (N, d, d) and (N, d)
        H, g = self.gram
        self.optimum = _solve_aggregate(H, g)
        # f* = sum_n ||A_n theta* - b_n||^2 + reg_n ||theta*||^2, added in worker order
        norm2, values = self.optimum @ self.optimum, np.empty(self.n)
        for members, A, b, reg in groups:
            r = np.matvec(A, self.optimum) - b
            values[members] = np.vecdot(r, r) + reg * norm2
        self.f_star = sequential_sum(values.tolist())
        self.slope = 2.0 * (np.matvec(H, self.optimum) - g)  # (N, d): c_n
        self._taken = np.empty((TRACE_BLOCK, points * self.n, self.dim))
        self._e = np.empty((points, TRACE_BLOCK, self.n, self.dim))
        self._optimum = np.empty_like(self._e)  # theta* in every row of e
        self._optimum[...] = self.optimum
        self._He = np.empty((points, self.n, TRACE_BLOCK, self.dim))
        self._slope = np.empty_like(self._He)  # c_n in every row of worker n's e_n H_n
        self._slope[...] = self.slope[:, None]
        self._q = np.empty((points, self.n, TRACE_BLOCK))
        self._err = np.empty((points, TRACE_BLOCK))

    def errors(self, models: np.ndarray, rows: np.ndarray) -> list[list[float]]:
        """sum_n f_n(theta_n) - f_n(theta*) for each model stack of a
        (TRACE_BLOCK, points*N, d) history block whose worker n of point p is
        row rows[p*N + n]: one list of TRACE_BLOCK errors per point.

        One take gathers the block point by point in worker order and one
        subtract of theta*'s block makes it e, a (points, TRACE_BLOCK, N, d)
        stack: a point's block has the layout of a one-point run's.  e_n, a
        point's worker n's (TRACE_BLOCK, d) rows, is a strided view that
        np.matmul multiplies by H_n as one gemm per worker and point.
        (e_n H_n + c_n) . e_n is one add of the slopes' block and one
        np.vecdot, a ddot per row, and the workers' terms are added in worker
        order by one np.add.reduce over their axis: one elementwise add per
        worker, the same additions as a Python float sum.  Every row is
        evaluated, so a row's bits do not depend on which of the others the
        caller keeps; rows it has not written must hold finite values.
        """
        taken, e, He, q = self._taken, self._e, self._He, self._q
        models.take(rows, 1, taken, "clip")
        np.subtract(taken.reshape(TRACE_BLOCK, len(e), self.n, self.dim).swapaxes(0, 1), self._optimum, e)
        e = e.transpose(0, 2, 1, 3)
        np.matmul(e, self.gram[0], He)
        np.add(He, self._slope, He)
        np.vecdot(e, He, out=q)
        return np.add.reduce(q, 1, None, self._err).tolist()


def _by_shape(problems: list[LocalProblem]) -> list[tuple[list[int], np.ndarray, np.ndarray, np.ndarray]]:
    """The workers in groups of one (samples, d) shape, in worker order: per
    group its workers' indices and their stacked A (k, s, d), b (k, s) and
    reg (k,)."""
    d = problems[0].dim
    if any(p.dim != d for p in problems):
        raise ValueError("all workers must share one model dimension")
    members: dict[tuple[int, int], list[int]] = {}
    for n, p in enumerate(problems):
        members.setdefault(p.A.shape, []).append(n)
    return [(group, np.array([problems[n].A for n in group]), np.array([problems[n].b for n in group]),
             np.array([problems[n].reg for n in group])) for group in members.values()]


def _grams(groups, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The stacked Gram pairs (H, g), (n, d, d) and (n, d): H_n = A_n^T A_n +
    reg_n I and g_n = A_n^T b_n, each product the BLAS call of its
    per-worker form."""
    H, g, eye = np.empty((n, d, d)), np.empty((n, d)), np.eye(d)
    for members, A, b, reg in groups:
        At = A.transpose(0, 2, 1)
        H[members] = np.matmul(At, A) + reg[:, None, None] * eye
        g[members] = np.matvec(At, b)
    return H, g


def _solve_aggregate(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """theta* solving (sum_n H_n) theta = sum_n g_n, each sum added in worker
    order from zero."""
    total = sequential_sum(H)
    if np.linalg.matrix_rank(total) < H.shape[-1]:
        raise SingularSystem("aggregate least-squares system is rank-deficient")
    return np.linalg.solve(total, sequential_sum(g))


def centralized_solution(problems: list[LocalProblem]) -> np.ndarray:
    """Exact minimizer of sum_n f_n(theta) over a single shared theta."""
    return _solve_aggregate(*_grams(_by_shape(problems), len(problems), problems[0].dim))
