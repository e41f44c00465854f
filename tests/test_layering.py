"""Static checks of the package layout, read from the source with `ast`.

Modules import only modules below them in LAYERS and no private name of
another package module, and the K-match ranking and tie code lives in
`hypotheses.py` alone: other modules may import its public names, but define
none of them, only it calls the assignment solver, and only it names the tie
machinery. The information densities have one kernel, in `divergences.py`,
the only module that calls `np.log1p`. A pair problem of the exponents is
one object, `_PairProblem`, which alone computes its tied point. A
`HypothesisSpace` is its shape (M1, M2, K), and only `hypotheses.py` reads
its index arrays. A Gaussian covariance is checked, merged and projected
inside `smalldev._Gaussian` alone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "seqmatch"
LAYERS = ["core", "divergences", "hypotheses", "glrt", "exponents", "smalldev", "simulate", "cli"]
# the package facade and the `python -m` entry point may import any module
FACADES = {"__init__", "__main__"}
KMATCH_NAMES = {
    "TIE_REL", "ENUM_MAX_T", "ENUM_PER_TRIAL", "pair_sums", "batch_scores", "batch_known_k", "_tied", "_KMatches",
    "_tie_groups", "_solve_step", "_enumerated_minima",
}
TIE_NAMES = {"TIE_REL", "_KMatches", "_tie_groups", "_tied"}
# the K-match step's arms and its enumeration bounds, which the decisions
# reach through `kmatch_minima` alone
ARM_NAMES = {"ENUM_MAX_T", "ENUM_PER_TRIAL", "enumerate_space", "batch_scores", "_enumerated_minima", "_solve_step"}


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _package_imports(tree):
    """The seqmatch modules a module imports, relatively or by full name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(a.name for a in node.names)
            elif (node.module or "").startswith("seqmatch."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("seqmatch."))
    return out


def _defined(tree):
    """Names a module binds itself: functions, classes and assignments."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def test_every_module_has_a_layer():
    assert set(_modules()) == set(LAYERS) | FACADES


def test_imports_follow_the_layers():
    for name, tree in _modules().items():
        if name in FACADES:
            continue
        below = set(LAYERS[: LAYERS.index(name)])
        assert _package_imports(tree) <= below, (name, _package_imports(tree) - below)


def test_kmatch_code_lives_in_hypotheses():
    modules = _modules()
    for name in KMATCH_NAMES:
        homes = [m for m, tree in modules.items() if name in _defined(tree)]
        assert homes == ["hypotheses"], (name, homes)
    for name, tree in modules.items():
        if name == "hypotheses":
            continue
        # the assignment solver is neither imported nor named elsewhere
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert "linear_sum_assignment" not in names, name
        # a K-match name used here is imported from hypotheses
        imported = {
            a.asname or a.name
            for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == "hypotheses"
            for a in n.names
        }
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} & KMATCH_NAMES
        assert used <= imported, (name, used - imported)


def test_no_private_name_imported_across_modules():
    for name, tree in _modules().items():
        private = [
            (node.module, a.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names
            if a.name.startswith("_")
        ]
        assert not private, (name, private)


def test_tie_machinery_named_only_in_hypotheses():
    for name, tree in _modules().items():
        if name == "hypotheses":
            continue
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not names & TIE_NAMES, (name, names & TIE_NAMES)


def _named(tree):
    """Every plain name, attribute and imported name of a tree."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return names | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}


def test_decisions_name_no_arm_of_the_kmatch_step():
    modules = _modules()
    assert not _named(modules["glrt"]) & ARM_NAMES, _named(modules["glrt"]) & ARM_NAMES
    for name, tree in modules.items():
        assert name == "hypotheses" or not _named(tree) & {"_enumerated_minima", "_solve_step", "ENUM_PER_TRIAL"}


def test_no_kmatch_gather_holds_a_pair_axis():
    # a hypothesis score is summed one pair place at a time by `pair_sums`:
    # no (T, K, ...) gather indexes a table by a space's index arrays, and
    # nothing sums the pairs of an indexed table
    for name, tree in _modules().items():
        whole = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Subscript) and "_xy" in ast.dump(n.slice)]
        summed = [
            n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "sum"
            and isinstance(n.func.value, ast.Subscript) and "pairs" in ast.dump(n.func.value.slice)
        ]
        assert not whole and not summed, (name, whole, summed)


def test_only_divergences_calls_log1p():
    for name, tree in _modules().items():
        log1p = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "log1p" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
        ]
        assert name == "divergences" or not log1p, (name, log1p)


def test_no_per_side_density_kernels():
    for name, tree in _modules().items():
        assert not _defined(tree) & {"i1_arr", "i2_arr"}, name



def _calls(tree, name):
    """The calls of the plain name `name` inside a tree."""
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name]


def test_one_pair_problem_object():
    modules = _modules()
    for name, tree in modules.items():
        assert not _defined(tree) & {"_solve", "_pair_problem"}, name
    # every call of _zero_solution in the package is inside _PairProblem
    homes = [n for n in ast.walk(modules["exponents"]) if isinstance(n, ast.ClassDef) and n.name == "_PairProblem"]
    assert len(homes) == 1
    inside = _calls(homes[0], "_zero_solution")
    assert inside and sum(len(_calls(tree, "_zero_solution")) for tree in modules.values()) == len(inside)


def test_space_layout_lives_in_hypotheses():
    modules = _modules()
    cls = next(
        n for n in ast.walk(modules["hypotheses"]) if isinstance(n, ast.ClassDef) and n.name == "HypothesisSpace"
    )
    fields = [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]
    assert fields == ["m1", "m2", "k"]
    # the (T, K) index arrays are read in hypotheses alone
    for name, tree in modules.items():
        reads = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "_xy"]
        assert name == "hypotheses" or not reads, (name, reads)


def test_gaussian_prepared_in_one_place():
    # a covariance is checked, merged and projected by `_Gaussian` alone,
    # so no caller re-projects a matrix that a prepared Gaussian holds
    modules = _modules()
    homes = [n for n in ast.walk(modules["smalldev"]) if isinstance(n, ast.ClassDef) and n.name == "_Gaussian"]
    assert len(homes) == 1
    for name in ("_project_psd", "_merge_copies"):
        inside = _calls(homes[0], name)
        assert inside and sum(len(_calls(tree, name)) for tree in modules.values()) == len(inside), name
