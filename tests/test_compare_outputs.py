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
    # run.csv, its sidecar and log, and the five written inputs
    assert capsys.readouterr().out == "8 of 8 files identical\n"

    assert compare_outputs.main(["--parent", str(changed)]) == 1
    assert capsys.readouterr().out == "differs: run.csv (1 row: 1)\n7 of 8 files identical\n"


SWEEP = (
    "family,v\nopen_loop,1\nadditive_noise,2\nadditive_noise,3\noptimized,4\n"
    "# metadata\n# seed=0\n"
)


def test_a_differing_csv_names_its_changed_rows(tmp_path, monkeypatch, capsys):
    """Two rows of one family, a row only one side has, and a metadata
    line alone."""
    here = _tree(tmp_path / "here", SWEEP, 1.5)
    cases = {
        "rows": (SWEEP.replace(",2", ",2.5").replace(",3", ",3.5"), "(2 rows: additive_noise)"),
        "extra": (
            SWEEP.replace("# metadata", "extra,5\n# metadata"), "(1 row only in parent: extra)"
        ),
        "families": (
            SWEEP.replace(",1", ",0").replace(",4", ",0"), "(2 rows: open_loop, optimized)"
        ),
        "meta": (SWEEP.replace("seed=0", "seed=1"), "(0 rows; header or metadata)"),
    }
    monkeypatch.setattr(compare_outputs, "ROOT", here)
    monkeypatch.setattr(compare_outputs, "COMMANDS", [("run", ["--out", "run.csv"])])
    for name, (body, detail) in cases.items():
        parent = _tree(tmp_path / name, body, 1.5)
        assert compare_outputs.main(["--parent", str(parent)]) == 1
        assert capsys.readouterr().out == f"differs: run.csv {detail}\n7 of 8 files identical\n"


def _trace(rows: int, changed=()) -> str:
    """A trace CSV of ``rows`` iterations; the ``changed`` ones read 1."""
    lines = [f"{i},{1.0 if i in changed else 0.5}" for i in range(rows)]
    return "iter,objective\n" + "\n".join(lines) + "\n# seed=0\n"


def test_rows_on_one_side_only_are_counted_apart_as_ranges(tmp_path, monkeypatch, capsys):
    """A trace that stops early against the parent's longer one, a longer
    trace here, and both at once with differing rows, whose consecutive
    iterations collapse into ranges too."""
    here = _tree(tmp_path / "here", _trace(10), 1.5)
    cases = {
        "truncated": (_trace(60), "(50 rows only in parent: 10–59)"),
        "longer": (_trace(7), "(3 rows only here: 7–9)"),
        "both": (
            _trace(12, changed={1, 2, 3, 5}),
            "(4 rows: 1–3, 5; 2 rows only in parent: 10–11)",
        ),
    }
    monkeypatch.setattr(compare_outputs, "ROOT", here)
    monkeypatch.setattr(compare_outputs, "COMMANDS", [("run", ["--out", "run.csv"])])
    for name, (body, detail) in cases.items():
        parent = _tree(tmp_path / name, body, 1.5)
        assert compare_outputs.main(["--parent", str(parent)]) == 1
        assert capsys.readouterr().out == f"differs: run.csv {detail}\n7 of 8 files identical\n"
