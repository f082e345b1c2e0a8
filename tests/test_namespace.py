"""The covtest namespace resolves each public name from its home submodule."""

import importlib
from pathlib import Path

import pytest

import covtest
from covtest import exact_lrt

PUBLIC = [name for name in covtest.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_home_attribute(name):
    value = getattr(covtest, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("covtest.")
    assert getattr(home, name) is value


def test_dir_lists_every_public_name():
    assert set(covtest.__all__) <= set(dir(covtest))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        covtest.no_such_name  # noqa: B018
    assert not hasattr(covtest, "fit_null")  # public in null_fit, not in the package


def test_star_import_binds_every_name():
    namespace = {}
    exec("from covtest import *", namespace)
    assert set(covtest.__all__) <= set(namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(covtest, name)


def test_name_is_read_at_access_time(monkeypatch):
    """A rebound home attribute (as the benchmark's tracer does) is what the
    package returns; the package keeps no copy."""
    sentinel = object()
    monkeypatch.setattr(exact_lrt, "p_value", sentinel)
    assert covtest.p_value is sentinel


def test_readme_library_sketch_runs(capsys):
    """The README's "Library sketch" block runs as written and prints a score
    p-value, then an RLRT statistic and its p-value."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    score_line, rlrt_line = capsys.readouterr().out.splitlines()
    statistic, p = (float(v) for v in rlrt_line.split())
    assert 0.0 < float(score_line) <= 1.0
    assert statistic >= 0.0 and 0.0 < p <= 1.0
