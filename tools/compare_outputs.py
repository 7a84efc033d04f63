"""Compare the outputs of this checkout with those of a git revision.

    python tools/compare_outputs.py [REV]

Exports REV (default HEAD) with `git archive`, runs that tree's own
tools/write_outputs.py and then this checkout's, each into a directory of
its own, and prints `diff -r` of the two, REV's side as `REV` and this
checkout's as `checkout`.  Exits 0 when the two match and 1 otherwise.  The
temporary directories are removed either way.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def write_outputs(tree: Path, out: Path) -> None:
    """Run `tree`'s own tools/write_outputs.py into `out`."""
    subprocess.run([sys.executable, str(tree / "tools" / "write_outputs.py"), str(out)],
                   check=True)


def main(argv) -> int:
    if len(argv) > 1:
        sys.exit(__doc__)
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
        if archive.returncode:
            sys.exit(archive.stderr.decode(errors="replace").strip())
        (tmp / "tree").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "tree")], input=archive.stdout, check=True)
        write_outputs(tmp / "tree", tmp / "REV")
        write_outputs(ROOT, tmp / "checkout")
        diff = subprocess.run(["diff", "-r", "REV", "checkout"], cwd=tmp)
        return 0 if diff.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
