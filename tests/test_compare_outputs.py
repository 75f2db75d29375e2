"""tools/compare_outputs.py on two small stand-in checkouts.

Each stand-in's ``privsample.cli`` writes one output with a sidecar and
prints a validate-style line whose seconds differ between the two, so
the full command list never runs.
"""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

CLI = '''import sys
from pathlib import Path
out = Path(sys.argv[sys.argv.index("--out") + 1])
out.write_text({body!r})
Path(str(out) + ".meta.json").write_text("{{}}\\n")
print("PASS  check_name   {seconds:6.1f}s  detail 0.5s")
'''


def _tree(root: Path, body: str, seconds: float) -> Path:
    pkg = root / "src" / "privsample"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(CLI.format(body=body, seconds=seconds))
    return root


def test_identical_trees_pass_and_one_changed_byte_fails(tmp_path, monkeypatch, capsys):
    here = _tree(tmp_path / "here", "a,b\n1,2\n", 1.5)
    same = _tree(tmp_path / "same", "a,b\n1,2\n", 12.25)
    changed = _tree(tmp_path / "changed", "a,b\n1,3\n", 1.5)
    monkeypatch.setattr(compare_outputs, "ROOT", here)
    monkeypatch.setattr(compare_outputs, "COMMANDS", [("run", ["--out", "run.csv"])])

    assert compare_outputs.main(["--parent", str(same)]) == 0
    assert capsys.readouterr().out == "4 of 4 files identical\n"

    assert compare_outputs.main(["--parent", str(changed)]) == 1
    assert capsys.readouterr().out == "differs: run.csv\n3 of 4 files identical\n"
