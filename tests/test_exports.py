import ast
import importlib
import importlib.util
from pathlib import Path

import spcakit


def test_export_list_sorted_unique_and_resolvable():
    names = spcakit.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(spcakit, name)]
    assert missing == []


def test_traced_functions_exist():
    # The benchmark's tracer wraps these names by module; a rename must fail
    # here, not only in a traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"spcakit.{layer}"), name, None))
    ]
    assert missing == []


def test_no_assert_in_the_package():
    # Invariants must hold under python -O, which strips assert statements
    # and code that reads __debug__; the package raises InvariantViolation
    # (or another error) instead.
    package = Path(spcakit.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []
