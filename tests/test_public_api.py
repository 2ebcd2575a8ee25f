import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftelm
import driftelm.benchmark
import driftelm.solvers


def test_every_exported_name_resolves():
    assert len(set(driftelm.__all__)) == len(driftelm.__all__)
    assert [name for name in driftelm.__all__ if not hasattr(driftelm, name)] == []


def test_benchmark_binds_the_public_trainers():
    # the benchmark calls the trainers through its own module names, which is
    # where an outside tracer wraps them
    for name in ("train_elm", "train_daelm_s", "train_daelm_t"):
        assert getattr(driftelm.benchmark, name) is getattr(driftelm.solvers, name)
        assert getattr(driftelm, name) is getattr(driftelm.solvers, name)


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports this checkout's driftelm."""
    src = str(Path(driftelm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_import_loads_scipy_special_only_for_a_sigmoid_map():
    # scipy.special is slow to import and only the sigmoid activation uses it
    run_fresh("""if True:
        import sys
        import driftelm
        assert "scipy.special" not in sys.modules
        fmap = driftelm.new_feature_map(3, 2, activation="sigmoid")
        driftelm.hidden_output(fmap, [[0.5, -0.5]])
        assert "scipy.special" in sys.modules
    """)


@pytest.mark.skipif(driftelm.solvers._lapack() is None,
                    reason="this numpy ships no LAPACK; the solvers use scipy's")
def test_radbas_protocol_loads_no_scipy():
    # the Cholesky runs in numpy's own LAPACK: a radbas run needs no scipy,
    # and a jobs = 1 run no thread pool. 24 source rows and 12 per target
    # against 16 hidden units take both closed forms.
    run_fresh("""if True:
        import sys
        import numpy as np
        import driftelm
        rng = np.random.default_rng(0)
        corpus = [driftelm.SampleSet(rng.normal(size=(n, 4)), np.repeat([1, 2, 3], n // 3),
                                     batch_id=b)
                  for b, n in zip(range(1, 11), [24] + [12] * 9)]
        for method, k in (("elm", 0), ("daelm-s", 3), ("daelm-t", 3)):
            cfg = driftelm.ExperimentConfig(method=method, k_guides=k, hidden_size=16,
                                            runs=1)
            driftelm.run_experiment(cfg, corpus)
        loaded = [m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent")]
        assert loaded == [], loaded
    """)


def test_package_makes_no_runtime_check_with_assert():
    # `python -O` strips assert statements, so a check written as one vanishes
    package = Path(driftelm.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
