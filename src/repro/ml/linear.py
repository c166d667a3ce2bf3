"""Linear classifiers: logistic regression and linear SVM.

Both optimise smooth convex objectives with L-BFGS (scipy) and analytic
gradients, supporting per-class weights ('balanced') as used in the paper's
Table III parameter settings.  scipy is imported inside ``fit`` only, so
importing (or predicting with) these models does not load it.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, resolve_class_weight
from repro.utils.validation import (
    check_array,
    check_binary_labels,
    check_consistent_length,
    check_fitted,
)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Piecewise-stable logistic: avoids overflow in exp for large |z|.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Binary logistic regression with L2 regularisation.

    Parameters
    ----------
    C:
        Inverse regularisation strength (scikit-learn convention).
    class_weight:
        ``None``, ``'balanced'``, or a ``{label: weight}`` dict.
    max_iter:
        L-BFGS iteration budget.
    random_state:
        Unused (deterministic solver); accepted for API uniformity with the
        paper's ``Random state=0`` setting.
    """

    def __init__(
        self,
        C: float = 1.0,
        class_weight=None,
        max_iter: int = 200,
        tol: float = 1e-6,
        fit_intercept: bool = True,
        random_state=None,
    ):
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.class_weight = class_weight
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.random_state = random_state
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y, sample_weight=None) -> "LogisticRegression":
        X = check_array(X)
        y = check_binary_labels(y)
        check_consistent_length(X, y)
        w = resolve_class_weight(self.class_weight, y)
        if sample_weight is not None:
            w = w * np.asarray(sample_weight, dtype=np.float64)
        n, d = X.shape
        t = y.astype(np.float64)
        lam = 1.0 / (self.C * n)

        def objective(theta):
            coef = theta[:d]
            b = theta[d] if self.fit_intercept else 0.0
            z = X @ coef + b
            p = _sigmoid(z)
            eps = 1e-12
            nll = -np.sum(w * (t * np.log(p + eps) + (1 - t) * np.log(1 - p + eps))) / n
            loss = nll + 0.5 * lam * np.dot(coef, coef)
            grad_z = w * (p - t) / n
            grad_coef = X.T @ grad_z + lam * coef
            if self.fit_intercept:
                grad = np.concatenate([grad_coef, [grad_z.sum()]])
            else:
                grad = grad_coef
            return loss, grad

        from scipy.optimize import minimize

        size = d + 1 if self.fit_intercept else d
        result = minimize(
            objective,
            np.zeros(size),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        self.coef_ = result.x[:d]
        self.intercept_ = float(result.x[d]) if self.fit_intercept else 0.0
        return self

    def decision_function(self, X) -> np.ndarray:
        check_fitted(self, "coef_")
        X = check_array(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """``(n, 2)`` array of class probabilities ``[P(y=0), P(y=1)]``."""
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int64)


class LinearSVC(BaseEstimator, ClassifierMixin):
    """Linear SVM with squared-hinge loss and L2 penalty.

    The squared hinge is differentiable, so the same L-BFGS machinery as
    :class:`LogisticRegression` applies.  ``decision_function`` margins are
    used directly as ranking scores where probabilities are not needed.
    """

    def __init__(
        self,
        C: float = 1.0,
        class_weight=None,
        max_iter: int = 200,
        tol: float = 1e-6,
        fit_intercept: bool = True,
    ):
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.class_weight = class_weight
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X, y, sample_weight=None) -> "LinearSVC":
        X = check_array(X)
        y01 = check_binary_labels(y)
        check_consistent_length(X, y01)
        w = resolve_class_weight(self.class_weight, y01)
        if sample_weight is not None:
            w = w * np.asarray(sample_weight, dtype=np.float64)
        s = np.where(y01 == 1, 1.0, -1.0)  # signed labels
        n, d = X.shape

        def objective(theta):
            coef = theta[:d]
            b = theta[d] if self.fit_intercept else 0.0
            margins = s * (X @ coef + b)
            slack = np.maximum(0.0, 1.0 - margins)
            loss = 0.5 * np.dot(coef, coef) + self.C * np.sum(w * slack**2)
            grad_m = -2.0 * self.C * w * slack * s
            grad_coef = coef + X.T @ grad_m
            if self.fit_intercept:
                grad = np.concatenate([grad_coef, [grad_m.sum()]])
            else:
                grad = grad_coef
            return loss, grad

        from scipy.optimize import minimize

        size = d + 1 if self.fit_intercept else d
        result = minimize(
            objective,
            np.zeros(size),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        self.coef_ = result.x[:d]
        self.intercept_ = float(result.x[d]) if self.fit_intercept else 0.0
        return self

    def decision_function(self, X) -> np.ndarray:
        check_fitted(self, "coef_")
        X = check_array(X)
        return X @ self.coef_ + self.intercept_

    def predict(self, X) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int64)
