"""README's budget table is the output of tools/budget_edges.py, which reads the library's checks."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_table() -> list[str]:
    """The Markdown table of README's Budgets section, a line at a time."""
    section = (ROOT / "README.md").read_text().split("### Budgets\n", 1)[1]
    lines = section.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("| family |"))
    rest = lines[first:]
    end = next((i for i, line in enumerate(rest) if not line.startswith("|")), len(rest))
    return rest[:end]


def test_readme_budget_table_is_the_tool_s_output():
    tool = ROOT / "tools" / "budget_edges.py"
    proc = subprocess.run(
        [sys.executable, str(tool)], capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == readme_table()
