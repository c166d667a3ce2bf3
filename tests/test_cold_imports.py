"""Serving, training and the paper pipeline start without importing scipy,
and serving starts without importing the Table VI diffusion baselines, the
RETINA trainer and evaluation, the hate-generation pipeline, or the
``repro.ml`` estimators.

scipy is needed only to fit the linear models (L-BFGS).  A fresh interpreter
imports every entry module, computes an ROC-AUC, and must hold no ``scipy``
module until ``LogisticRegression.fit`` runs.
"""

import functools
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def _run(probe: str) -> dict:
    """Run ``probe`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


_PROBE = """
import json, sys
import repro.cli, repro.serving, repro.serving.aio, repro.data
import repro.core.retina, repro.core.hategen
from repro.ml import LogisticRegression
from repro.ml.metrics import roc_auc_score

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

auc = roc_auc_score([0, 1, 0, 1, 1], [0.1, 0.9, 0.4, 0.4, 0.7])
before = scipy_modules()
clf = LogisticRegression().fit([[0.0], [1.0], [0.2], [0.9]], [0, 1, 0, 1])
print(json.dumps({
    "auc": auc,
    "before_fit": before,
    "optimize_after_fit": "scipy.optimize" in sys.modules,
    "pred": clf.predict([[0.0], [1.0]]).tolist(),
}))
"""


def test_entry_modules_do_not_import_scipy():
    got = _run(_PROBE)
    assert got["auc"] == 5.5 / 6
    assert got["before_fit"] == []
    assert got["optimize_after_fit"] is True
    assert got["pred"] == [0, 1]


_SERVING_PROBE = """
import json, sys
import repro.serving, repro.serving.aio, repro.cli
loaded = sorted(m for m in sys.modules if m.startswith("repro."))
from repro.diffusion import HIDAN
from repro.core.retina import RetinaTrainer
from repro.core.hategen import HateGenerationPipeline
from repro.ml import DecisionTreeClassifier
print(json.dumps({"loaded": loaded, "lazy": [
    c.__module__
    for c in (HIDAN, RetinaTrainer, HateGenerationPipeline, DecisionTreeClassifier)
]}))
"""


def test_serving_imports_no_diffusion_baseline():
    got = _run(_SERVING_PROBE)
    for baseline in ("sir", "threshold", "topolstm", "forest", "hidan"):
        assert f"repro.diffusion.{baseline}" not in got["loaded"]
    assert got["lazy"][0] == "repro.diffusion.hidan"  # still importable on demand


def test_serving_imports_no_trainer_pipeline_or_estimator():
    """The registry needs the two extractors and ``RETINA``, nothing more."""
    got = _run(_SERVING_PROBE)
    for module in ("retina.trainer", "retina.evaluate", "hategen.pipeline",
                   "hategen.models", "hategen.ablation"):
        assert f"repro.core.{module}" not in got["loaded"]
    # ``repro.ml.base`` holds the estimator base class TfidfVectorizer extends.
    ml = [m for m in got["loaded"] if m.startswith("repro.ml.")]
    assert ml == ["repro.ml.base"]
    assert got["lazy"][1:] == [  # still importable on demand
        "repro.core.retina.trainer",
        "repro.core.hategen.pipeline",
        "repro.ml.tree",
    ]
