"""Classical machine-learning substrate (scikit-learn stand-in).

The paper's hate-generation experiments (Sec. IV, Table IV) use scikit-learn
classifiers; that dependency is unavailable offline, so this package
implements the required estimators, transforms, and metrics from scratch on
numpy/scipy.  The estimator API mirrors scikit-learn conventions
(``fit``/``predict``/``predict_proba``/``transform``) so the modelling code
reads the same as the paper's.

The estimators are imported on first access: the text models and the
serving layer need only :mod:`repro.ml.base`.
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "BaseEstimator": "base",
    "ClassifierMixin": "base",
    "TransformerMixin": "base",
    "clone": "base",
    "LogisticRegression": "linear",
    "LinearSVC": "linear",
    "SVC": "svm",
    "DecisionTreeClassifier": "tree",
    "RandomForestClassifier": "ensemble",
    "AdaBoostClassifier": "ensemble",
    "GradientBoostingClassifier": "ensemble",
    "PCA": "decomposition",
    "SelectKBest": "feature_selection",
    "mutual_info_classif": "feature_selection",
    "StandardScaler": "preprocessing",
    "MinMaxScaler": "preprocessing",
    "normalize": "preprocessing",
    "downsample_majority": "sampling",
    "upsample_minority": "sampling",
    "train_test_split": "model_selection",
    "StratifiedKFold": "model_selection",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = list(_EXPORTS)
