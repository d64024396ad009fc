"""The import graph of the tsrk modules, read from their source."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tsrk"


def tsrk_imports(source):
    """The tsrk modules that ``source``, a module of tsrk, imports anywhere."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("tsrk.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "tsrk":
                    continue
                parts = parts[1:]
            found |= {parts[0]} if parts and parts[0] else {a.name for a in node.names}
    return found


def test_every_kind_of_import_is_read():
    source = ("import numpy\nimport tsrk.design\nfrom tsrk import stability\n"
              "from tsrk.chebyshev import x\nfrom . import problems as p\n"
              "from .reference import y\ndef f():\n    from .integrator import z\n")
    assert tsrk_imports(source) == {"design", "stability", "chebyshev", "problems",
                                    "reference", "integrator"}


def test_lower_layers_do_not_import_higher_ones():
    def imports(name):
        return tsrk_imports((SRC / f"{name}.py").read_text())

    assert "problems" not in imports("integrator")
    assert imports("reference").isdisjoint({"problems", "integrator"})
    assert imports("chebyshev") == set()


def test_only_reference_generates_code():
    # reference._generate compiles the model texts, for reference._rows and
    # integrator._stage_loop; problems hands its texts to them and generates
    # nothing itself, and integrator parses no text.
    def names(name):
        """The functions ``name`` calls by bare name, and the modules it imports."""
        calls, imported = set(), set()
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls.add(node.func.id)
            elif isinstance(node, ast.Import):
                imported |= {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        return calls, imported

    modules = {path.stem: names(path.stem) for path in SRC.glob("*.py")}
    generating = {name for name, (calls, _) in modules.items()
                  if calls & {"exec", "compile", "eval"}}
    assert generating == {"reference"}
    assert "textwrap" not in modules["problems"][1]
    assert "ast" not in modules["integrator"][1]
