"""The README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md library tour", "exec"), namespace)
    # the star import binds the public names without an __all__
    assert namespace["ff_gcd"](namespace["f"]) == 3
    assert namespace["verify_witness"](namespace["plan"]).passed
