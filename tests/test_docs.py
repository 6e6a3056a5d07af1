"""The README's Python quick start runs and prints what its comments say, the
names it cites exist, and no package module imports a name it never uses."""

import ast
import contextlib
import importlib
import io
import pathlib
import re

import contagion_games
from contagion_games import Allocation

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = pathlib.Path(contagion_games.__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("_"))


def test_readme_quick_start_prints_what_its_comments_claim():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert len(blocks) == 1
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), namespace)
    # Expected counts: red's big hub reaches itself and 9 followers, blue's
    # small hub itself and 2.  One equilibrium, both on the big hub; PoA 1.3.
    assert out.getvalue().splitlines() == ["10.0 3.0", "1", "1.3"]
    big_hub = Allocation.from_seeds(13, [3])
    [(red, blue, _)] = namespace["nash"].equilibria
    assert red == big_hub and blue == big_hub


def test_every_module_name_the_readme_cites_exists():
    """Each `module.name` (or `module.Class.attribute`) in backticks names
    a package module and something it defines."""
    pattern = rf"`({'|'.join(MODULES)})((?:\.\w+)+)`"
    cited = sorted(set(re.findall(pattern, README.read_text(encoding="utf-8"))))
    assert len(cited) >= 16
    missing = []
    for module, path in cited:
        obj = importlib.import_module(f"contagion_games.{module}")
        for name in path[1:].split("."):
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(module + path)
    assert missing == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert unused == []
