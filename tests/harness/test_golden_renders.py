"""E1–E7 Markdown renders at default sizes, byte for byte.

Each ``golden/eN.md`` holds what ``repro-consensus experiment eN
--markdown`` prints: the render plus ``print``'s newline, so
``repro-consensus experiment e2 --markdown | cmp - tests/harness/golden/e2.md``
checks the same bytes.  A change that moves a table on purpose updates
its golden file in the same commit.  E8 is left out: it prints timings.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.report import render_experiment_markdown

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["e1", "e2", "e3", "e4", "e5", "e6", "e7"])
def test_render_matches_golden(name):
    render = render_experiment_markdown(ALL_EXPERIMENTS[name]())
    assert render + "\n" == (GOLDEN / f"{name}.md").read_text(encoding="utf-8")
