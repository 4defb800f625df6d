"""Every package name the benchmark reaches resolves, so deleting one it needs
fails here and not only in the benchmark's traced runs."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _layer(name: str):
    return importlib.import_module(f"fedransom.{name}")


def test_every_timed_function_is_a_callable_of_its_layer():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"fedransom.{layer}.{name}" for layer, names in tracing.TIMED.items()
               for name in names if not callable(getattr(_layer(layer), name, None))]
    assert not missing


def test_every_package_name_the_bench_child_reaches_resolves():
    # fr.<layer>.<name>, where fr (also run.fr, self.fr) is the child's namespace of layers
    reached = set()
    for node in ast.walk(ast.parse((BENCH / "child.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            root = node.value.value
            if (isinstance(root, ast.Name) and root.id == "fr") or (
                    isinstance(root, ast.Attribute) and root.attr == "fr"):
                reached.add((node.value.attr, node.attr))
    assert {("corpus", "load_dataset"), ("errors", "FedransomError")} <= reached
    missing = [f"fedransom.{layer}.{name}" for layer, name in sorted(reached)
               if not hasattr(_layer(layer), name)]
    assert not missing
