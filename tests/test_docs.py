"""The README's Python quick start runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

from contagion_games import Allocation

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
