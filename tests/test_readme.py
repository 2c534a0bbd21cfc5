"""The README's library quick tour runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    section = README.read_text().split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(block, str(README), "exec"), ns)
    res, pts = ns["res"], ns["pts"]
    assert 0.0 < res.vn_squeezed < 1.0 < res.vn_antisqueezed and math.isfinite(res.shot)
    assert res.route == "dense"
    assert pts[1] == res
    assert all(pt.vn_squeezed < 1.0 < pt.vn_antisqueezed for pt in pts)
