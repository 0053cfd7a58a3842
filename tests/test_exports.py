import subprocess
import sys
from pathlib import Path

import examgraph


def test_package_imports_with_the_standard_library_alone():
    """With site-packages off (-S), ``examgraph`` and its CLI still import,
    and every top-level module they load ships with Python."""
    src = str(Path(examgraph.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import examgraph, examgraph.cli\n"
        "allowed = set(sys.stdlib_module_names) | {'examgraph', '__main__'}\n"
        "print(sorted({name.partition('.')[0] for name in sys.modules} - allowed))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", script],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
