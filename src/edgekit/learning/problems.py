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
from functools import cached_property

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

    @cached_property
    def _gram(self) -> tuple[np.ndarray, np.ndarray]:
        H = self.A.T @ self.A + self.reg * np.eye(self.dim)
        g = self.A.T @ self.b
        return H, g

    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """(H, g) with grad f = 2 H theta - 2 g; H = A^T A + reg I, g = A^T b."""
        return self._gram


class ProblemStack:
    """N workers' problems around their consensus optimum, as stacked arrays.

    Workers are rows 0..N-1.  With e_n = theta_n - theta* and the Gram pair
    (H_n, g_n), each worker's objective error is, exactly,

        f_n(theta_n) - f_n(theta*) = e_n^T H_n e_n + c_n . e_n,
        c_n = 2 (H_n theta* - g_n),

    so the error of a run is evaluated in this form rather than as a
    difference of two objectives: it is exactly 0.0 at theta*, and a small
    error is not the cancellation noise of F* - F*.  `errors` evaluates a
    whole block of TRACE_BLOCK model stacks of each of a run's `points`
    with one gemm per worker and point, into buffers allocated here, once
    per run.
    """

    def __init__(self, problems: list[LocalProblem], points: int = 1):
        self.problems = problems
        self.n = len(problems)
        self.dim = problems[0].dim
        self.optimum = centralized_solution(problems)
        self.f_star = self.objective(np.tile(self.optimum, (self.n, 1)))
        H, g = self.gram
        self.slope = 2.0 * (np.matvec(H, self.optimum) - g)  # (N, d): c_n
        self._taken = np.empty((TRACE_BLOCK, points * self.n, self.dim))
        self._e = np.empty((points, TRACE_BLOCK, self.n, self.dim))
        self._He = np.empty((points, self.n, TRACE_BLOCK, self.dim))
        self._q = np.empty((points, self.n, TRACE_BLOCK))
        self._err = np.empty((points, TRACE_BLOCK))

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (H, g): (N, d, d) and (N, d)."""
        grams = [p.gram() for p in self.problems]
        return np.stack([H for H, _ in grams]), np.stack([g for _, g in grams])

    def objective(self, theta: np.ndarray) -> float:
        """sum_n f_n(theta_n) for an (N, d) model stack: one gemv and two
        ddots per worker, summed in worker order as Python floats."""
        values = []
        for p, t in zip(self.problems, theta):
            r = p.A @ t - p.b
            values.append(float(r @ r + p.reg * (t @ t)))
        return sequential_sum(values)

    def errors(self, models: np.ndarray, rows: np.ndarray) -> list[list[float]]:
        """sum_n f_n(theta_n) - f_n(theta*) for each model stack of a
        (TRACE_BLOCK, points*N, d) history block whose worker n of point p is
        row rows[p*N + n]: one list of TRACE_BLOCK errors per point.

        One take gathers the block point by point in worker order and one
        subtract makes it e, a (points, TRACE_BLOCK, N, d) stack: a point's
        block has the layout of a one-point run's.  e_n, a point's worker
        n's (TRACE_BLOCK, d) rows, is a strided view that np.matmul
        multiplies by H_n as one gemm per worker and point.
        (e_n H_n + c_n) . e_n is one np.vecdot, a ddot per row, and the
        workers' terms are added in worker order by one np.add.reduce over
        their axis: one elementwise add per worker, the same additions as a
        Python float sum.  Every row is evaluated, so a row's bits do not
        depend on which of the others the caller keeps; rows it has not
        written must hold finite values.
        """
        taken, e, He, q = self._taken, self._e, self._He, self._q
        models.take(rows, axis=1, out=taken, mode="clip")
        by_point = taken.reshape(TRACE_BLOCK, len(e), self.n, self.dim).swapaxes(0, 1)
        np.subtract(by_point, self.optimum, out=e)
        e = e.transpose(0, 2, 1, 3)
        np.matmul(e, self.gram[0], out=He)
        np.add(He, self.slope[:, None], out=He)
        np.vecdot(e, He, out=q)
        return np.add.reduce(q, axis=1, out=self._err).tolist()


def centralized_solution(problems: list[LocalProblem]) -> np.ndarray:
    """Exact minimizer of sum_n f_n(theta) over a single shared theta."""
    d = problems[0].dim
    if any(p.dim != d for p in problems):
        raise ValueError("all workers must share one model dimension")
    H = np.zeros((d, d))
    g = np.zeros(d)
    for p in problems:
        Hn, gn = p.gram()
        H += Hn
        g += gn
    if np.linalg.matrix_rank(H) < d:
        raise SingularSystem("aggregate least-squares system is rank-deficient")
    return np.linalg.solve(H, g)
