"""Module boundaries of the package."""
import ast
from pathlib import Path

import privsample

# perfbench's traced run looks ``finite._Space`` up by this name
ALLOWED = {("validation", "finite", "_Space")}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_imports_another_modules_private_name():
    found = set()
    for path in sorted(Path(privsample.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("privsample")
            ):
                source = (node.module or "").rpartition(".")[2]
                found |= {(path.stem, source, a.name) for a in node.names if _is_private(a.name)}
    assert found <= ALLOWED, sorted(found - ALLOWED)


def _own_nodes(fn):
    """Nodes of ``fn``'s body outside any nested function or class."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_no_function_assigns_a_local_it_never_reads():
    """A plain, annotated or augmented ``name = ...`` inside a function
    needs a read of that name in the function (nested functions count).
    Loop and unpacking targets, ``_`` names and nonlocal/global names are
    exempt."""
    found = []
    for path in sorted(Path(privsample.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            used = {
                n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            used |= {
                name
                for n in ast.walk(fn)
                if isinstance(n, (ast.Nonlocal, ast.Global))
                for name in n.names
            }
            for node in _own_nodes(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                found += [
                    f"{path.stem}.{fn.name}: {t.id} (line {t.lineno})"
                    for t in targets
                    if isinstance(t, ast.Name) and not t.id.startswith("_") and t.id not in used
                ]
    assert not found, found


def test_every_substream_call_site_owns_its_stream():
    """Each ``substream(seed, n, ...)`` call in the package names its
    stream by an integer literal n that no other call site uses, so
    moving a draw cannot merge two streams or split one."""
    sites = {}
    for path in sorted(Path(privsample.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "substream":
                continue
            site = f"{path.stem}:{node.lineno}"
            head = node.args[1] if len(node.args) > 1 else None
            assert isinstance(head, ast.Constant) and type(head.value) is int, site
            sites.setdefault(head.value, []).append(site)
    assert all(len(s) == 1 for s in sites.values()), sites
    streams = {n: s[0].partition(":")[0] for n, s in sites.items()}
    assert streams == {
        0: "cli", 7: "cli", 100: "cli", 300: "cli",
        1: "optimizer", 2: "optimizer", 999: "optimizer",
    }


def _name_of(node):
    return getattr(node, "attr", getattr(node, "id", None))


def _scopes_using(name: str, calls_only: bool = False) -> set:
    """Dotted scopes (module.Class.function) whose own code names ``name``,
    as an attribute or a bare name; with ``calls_only``, only where it is
    called."""
    scopes = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if calls_only:
                used = isinstance(child, ast.Call) and _name_of(child.func) == name
            else:
                used = _name_of(child) == name
            if used:
                scopes.add(".".join(scope))
            visit(child, scope)

    for path in sorted(Path(privsample.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem,))
    return scopes


def test_only_the_branch_step_reads_child_op():
    """The finite engine's branch transition matrices are multiplied in
    one place, ``_Space.branches``, which the value recursion and the
    validation grid oracle both call."""
    readers = _scopes_using("child_op")
    assert readers == {"finite._Space.branches"}, sorted(readers)


def test_only_the_engine_conditions_through_observe():
    """Evaluation, the additive-noise baseline and ``simulate`` condition
    through ``engine.branch_step``; ``observe`` is the engine's own."""
    callers = {scope.partition(".")[0] for scope in _scopes_using("observe", calls_only=True)}
    assert callers == {"engine"}, sorted(callers)


def test_schedule_decisions_are_drawn_in_decide():
    """A schedule becomes keep/discard decisions in ``SamplerSchedule.decide``;
    only the growing reference ``loss.belief_rollout`` draws its own, so
    that it stays an independent check of the fixed-size paths."""
    callers = _scopes_using("keep", calls_only=True)
    assert callers == {"policy.SamplerSchedule.decide", "loss.belief_rollout"}, sorted(callers)


def test_engine_step_uses_no_slow_numpy_wrappers():
    """A batched engine step is bound by per-call overhead: block moves
    are plain transposes, the 4-block stacks are filled in place, and a
    singular y-block is caught by its determinant, so ``engine`` calls no
    ``np.moveaxis``, ``np.stack`` or ``np.errstate``."""
    path = Path(privsample.__file__).parent / "engine.py"
    found = sorted(
        f"np.{node.attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and getattr(node.value, "id", None) == "np"
        and node.attr in {"moveaxis", "stack", "errstate"}
    )
    assert not found, found


NUMPY_REPAIRS = {"pinv", "eigh", "eigvalsh"}


def _numpy_factorizations(source: str) -> list:
    """Calls in ``source`` to numpy's Cholesky (``np.linalg.cholesky`` or
    ``numpy.linalg.cholesky``), pseudo-inverse or eigendecomposition, and
    its imports from ``numpy.linalg``, through which such a call would go
    by a bare name (``linalg.cholesky`` is this package's own)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            chain = ast.unparse(node.func).split(".")
            if (chain[-2:] == ["linalg", "cholesky"] and len(chain) > 2) or chain[-1] in NUMPY_REPAIRS:
                found.append(f"{ast.unparse(node.func)} (line {node.lineno})")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not getattr(node, "level", 0):
            module = getattr(node, "module", None)
            names = [module + "." + a.name if module else a.name for a in node.names]
            found += [f"import {n} (line {node.lineno})" for n in names if "numpy.linalg" in n]
    return found


def test_the_growing_belief_factors_by_cholesky_or_fails():
    """``belief`` and ``loss`` factor every block by a plain Cholesky and
    raise on a failure, so they call no repair: no jittered or
    eigenvalue-floored factor, no pseudo-inverse and no eigendecomposition.
    Every other command-path module factors through ``linalg`` too: only
    ``linalg`` and the independent checks (``validation``, ``oracles``) call
    numpy's Cholesky, pseudo-inverse or eigendecomposition. No module calls
    ``inv_or_pinv`` at all (perfbench still wraps it), and only ``finite``'s
    coarse-grid diagnostic and the unreached ``inv_or_pinv`` warn, so no
    repair hides behind a warning. The numpy check resolves each call's
    dotted name and imports, so no spelling of the call gets past it."""
    for source in (
        "np.linalg.cholesky(a)",
        "numpy.linalg.cholesky(a)",
        "np.linalg.pinv(a)",
        "from numpy.linalg import cholesky\ncholesky(a)",
        "from numpy import linalg as la\nla.cholesky(a)",
        "import numpy.linalg",
    ):
        assert _numpy_factorizations(source), source
    assert not _numpy_factorizations("from .linalg import cholesky\ncholesky(a)\nlinalg.cholesky(a)")
    assert not _numpy_factorizations("import numpy as np\nnp.linalg.solve(a, b)")
    growing_repairs = {"chol_psd", "inv_or_pinv", "psd_sqrt"} | NUMPY_REPAIRS
    package = Path(privsample.__file__).parent
    found = [
        f"{stem}: {_name_of(node.func)} (line {node.lineno})"
        for stem in ("belief", "loss")
        for node in ast.walk(ast.parse((package / f"{stem}.py").read_text()))
        if isinstance(node, ast.Call) and _name_of(node.func) in growing_repairs
    ]
    others = {p.stem for p in package.glob("*.py")} - {"linalg", "validation", "oracles"}
    assert {"engine", "optimizer", "policy", "reconstruct", "follower", "lingauss"} <= others
    for stem in sorted(others):
        found += [f"{stem}: {f}" for f in _numpy_factorizations((package / f"{stem}.py").read_text())]
    assert not found, found
    assert _scopes_using("inv_or_pinv", calls_only=True) == set()
    assert _scopes_using("warn", calls_only=True) == {"finite.dp_solve", "linalg.inv_or_pinv"}
