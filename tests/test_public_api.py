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
