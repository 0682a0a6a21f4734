"""Local quadratic objectives and the centralized consensus oracle.

Each worker n holds f_n(theta) = ||A_n theta - b_n||^2 + mu ||theta||^2.
A scalar quadratic (theta - a)^2 is the special case A = [[1]], b = [a].
Restricting to quadratics keeps every primal update an exact linear solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


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
    """N workers' problems as stacked arrays, for whole-group evaluation.

    Workers are rows 0..N-1.  Workers with equal sample counts share one
    (k, samples, d) design stack, so evaluating every objective costs a few
    numpy calls per distinct sample count rather than per worker.
    """

    def __init__(self, problems: list[LocalProblem]):
        self.problems = problems
        self.n = len(problems)
        self.dim = problems[0].dim
        by_samples: dict[int, list[int]] = {}
        for i, p in enumerate(problems):
            by_samples.setdefault(p.A.shape[0], []).append(i)
        self._groups = [
            (
                slice(None) if len(rows) == self.n else np.array(rows),
                np.stack([problems[i].A for i in rows]),
                np.stack([problems[i].b for i in rows]),
                np.array([problems[i].reg for i in rows]),
            )
            for rows in by_samples.values()
        ]

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (H, g): (N, d, d) and (N, d)."""
        grams = [p.gram() for p in self.problems]
        return np.stack([H for H, _ in grams]), np.stack([g for _, g in grams])

    def values(self, theta: np.ndarray) -> np.ndarray:
        """f_n(theta_n) for every worker row n of an (..., N, d) model stack.

        ||A theta - b||^2 + reg ||theta||^2 with A theta one np.matvec that
        broadcasts A over the leading axes and each square one np.vecdot,
        which numpy runs as one gemv or ddot per row: the same BLAS calls, so
        the same bits, as evaluating the workers, and the stacked models, one
        at a time.
        """
        out = np.empty(theta.shape[:-1])
        for rows, A, b, reg in self._groups:
            t = theta[..., rows, :]
            r = np.matvec(A, t) - b
            out[..., rows] = np.vecdot(r, r) + reg * np.vecdot(t, t)
        return out

    def objective(self, theta: np.ndarray) -> float:
        """sum_n f_n(theta_n), summed in worker order as Python floats."""
        return sum(self.values(theta).tolist())


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
