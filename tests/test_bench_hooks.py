"""Every name the benchmark tracer hooks must exist in byzgrad.

`bench/tracer.py` wraps byzgrad names from outside the package.  When one
of them is renamed or removed, a traced benchmark run reports the metrics
that depend on it as absent.  The tracer is read from its path and only
its HOOKS table is used; nothing is installed.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_tracer_hook_resolves():
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    missing = []
    for module_name, path, _ in namespace["HOOKS"]:
        # looked up as Tracer.install does: class attributes through the class __dict__
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            missing.append(f"{module_name}.{path}")
            continue
        assert callable(original), f"{module_name}.{path}"
    assert missing == []
