"""The benchmark's tracer wraps program functions by module and name; every
one of them must still resolve.  ``perfbench/tracing.py`` is loaded from its
file and not modified."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from interactive import generate_model, save_model
from interactive.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "interactive"


def _load_tracing():
    loader = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracer = _load_tracing().Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()


def test_no_traced_name_is_a_generator_function():
    # a wrapped generator function would time only the creation of its generator
    for _, module, attr, _ in _load_tracing().TARGETS:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        func = getattr(obj, "__func__", obj)  # a classmethod resolves to a bound method
        assert not inspect.isgeneratorfunction(func), f"{module}.{attr}"


def test_tracer_sees_toybench_forward(tmp_path):
    # toybench's batched path must call ``forward``, and ``to_input_tensor`` must
    # build its tensor through ``Tensor3.from_array``, by the names the tracer wraps
    model = tmp_path / "m.model"
    save_model(generate_model("tiny-2conv", seed=7), model)
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        assert main(["toybench", "--model", str(model), "--out", str(tmp_path / "r.txt")]) == 0
    finally:
        tracer.uninstall()
    assert {"net.forward", "tensor.from_array"} <= {span[0] for span in tracer.spans}
    # one input per image group: the 48 tiny-2conv images at 8x8x3 fit one group
    assert [span[0] for span in tracer.spans].count("tensor.from_array") == 1


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_imports_left_unused_are_kept_for_the_tracer():
    # a module may import a name it never uses only so that the tracer can wrap
    # it there; any other unused import is dead code
    assert _unused_imports("import os.path\nfrom a import b, c as d\nos.sep\nd()\n") == {"b"}
    traced = {(module, attr) for _, module, attr, _ in _load_tracing().TARGETS}
    unused = {
        (f"interactive.{path.stem}", name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for name in _unused_imports(path.read_text())
    }
    assert sorted(unused - traced) == []
