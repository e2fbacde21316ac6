"""Public-surface census: every public name in ``repro`` has a user.

Two checks keep code that nothing runs from coming back, and keep a
deletion from breaking a caller that the tests never import:

* every ``from repro... import`` in ``src/``, ``benchmarks/`` and
  ``examples/`` resolves;
* every public top-level function and class in ``src/repro`` is reachable,
  by name, from a root, or is on :data:`ALLOWLIST` with its reason.  The
  roots are private and module-level code in ``src/repro`` (so the CLI
  counts), and everything in ``benchmarks/`` and ``examples/``.  Package
  re-exports and ``__all__`` lists are not users, and neither are tests.

``python tests/test_public_surface.py`` prints the unreachable names.
"""

import ast
import importlib
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_ORACLE = "independent oracle for a layer (ROADMAP item 9)"
_SUBSTRATE = "test and oracle substrate"
_WRITER = "format writer, the round-trip half of a reader (DESIGN rows 5, 27)"
_TDF = "transition-fault ATPG, DESIGN core row 9 (its speed-up is its own item)"
_ECONOMICS = "test-economics model that X6 cites"
_NUMPY = "numpy kernel helper, deleted with the kernel (ROADMAP item 7)"
_ENCODING = "small value/encoding helper"
_PENDING = "no flow user yet: wire it in or delete it in the next pass"

#: Public names kept without a non-test user, each with its reason.
ALLOWLIST: Dict[str, str] = {
    "compression.misr.measure_aliasing": _ORACLE,
    "compression.misr.theoretical_aliasing_probability": _ORACLE,
    "diagnosis.dictionary.FaultDictionary": _ORACLE,
    "compression.gf2.rank_of": _SUBSTRATE,
    "compression.gf2.dot_bits": _SUBSTRATE,
    "compression.gf2.solve_system": _SUBSTRATE,
    "atpg.random_gen.exhaustive_patterns": _SUBSTRATE,
    "sim.parallel.pack_patterns": _SUBSTRATE,
    "sim.parallel.unpack_word": _SUBSTRATE,
    "circuit.generators.chain_of_inverters": _SUBSTRATE,
    "bist.testpoints.neutral_control_values": _SUBSTRATE,
    "circuit.bench.write_bench": _WRITER,
    "circuit.bench.save_bench": _WRITER,
    "circuit.verilog.write_verilog": _WRITER,
    "circuit.verilog.save_verilog": _WRITER,
    "circuit.verilog.sanitize_net_name": _WRITER,
    "atpg.tdf.TdfAtpgResult": _TDF,
    "atpg.tdf.random_loc_pairs": _TDF,
    "atpg.tdf.run_tdf_atpg": _TDF,
    "faults.transition.full_transition_list": _TDF,
    "dft.economics.TestCostModel": _ECONOMICS,
    "dft.economics.coverage_for_dppm": _ECONOMICS,
    "dft.economics.mapout_yield_uplift": _ECONOMICS,
    "dft.economics.negative_binomial_yield": _ECONOMICS,
    "dft.economics.tester_cost_per_die": _ECONOMICS,
    "sim.npsim.int_to_words": _NUMPY,
    "sim.npsim.unpack_bits": _NUMPY,
    "sim.npsim.words_to_int": _NUMPY,
    "circuit.values.char_to_value": _ENCODING,
    "circuit.values.string_to_values": _ENCODING,
    "circuit.values.value_to_char": _ENCODING,
    "circuit.values.values_to_string": _ENCODING,
    "circuit.dcalc.faulty_rail": _ENCODING,
    "circuit.dcalc.from_fourvalued": _ENCODING,
    "circuit.dcalc.pack": _ENCODING,
    "circuit.gates.controlled_value": _ENCODING,
    "circuit.simplify.simplify": _PENDING,
    "circuit.simplify.SimplifyReport": _PENDING,
    "scan.patterns.ScanScheduler": _PENDING,
    "scan.patterns.ScanOperation": _PENDING,
    "aichip.quantize.quantize_matmul_output_scale": _PENDING,
    "aichip.quantize.requantize": _PENDING,
    "bist.march.march_test_by_name": _PENDING,
    "faults.collapse.collapse_ratio": _PENDING,
}


def _python_files() -> Iterator[Path]:
    for top in (SRC / "repro", ROOT / "benchmarks", ROOT / "examples"):
        yield from sorted(top.rglob("*.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _references(code: ast.AST) -> Set[str]:
    """Identifiers a piece of code names: variables, attributes, and
    identifier-shaped string constants (``getattr``/``setattr`` targets)."""
    found: Set[str] = set()
    for node in ast.walk(code):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
    return found


def _is_export_list(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _census() -> Tuple[Dict[str, Set[str]], Set[str]]:
    """Public top-level definitions (``module.name`` → names they use) and
    the names the roots use."""
    public: Dict[str, Set[str]] = {}
    roots: Set[str] = set()
    for path in _python_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        if not path.is_relative_to(SRC):
            roots |= _references(tree)
            continue
        module = _module_name(path)[len("repro."):]
        for node in tree.body:
            if _is_export_list(node):
                continue
            named = isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            if named and not node.name.startswith("_"):
                public[f"{module}.{node.name}"] = _references(node)
            else:
                roots |= _references(node)
    return public, roots


def unreachable_names() -> List[str]:
    """Public names no root reaches, directly or through other public names."""
    public, used = _census()
    reached: Set[str] = set()
    frontier = True
    while frontier:
        frontier = False
        for qualname, refs in public.items():
            if qualname not in reached and qualname.rsplit(".", 1)[1] in used:
                reached.add(qualname)
                used |= refs
                frontier = True
    return sorted(set(public) - reached)


def _imported_modules() -> Iterator[Tuple[Path, str, List[str]]]:
    """``(file, repro module, names imported from it)`` for every import."""
    for path in _python_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        package = _module_name(path) if path.is_relative_to(SRC) else ""
        if path.name != "__init__.py":
            package = package.rpartition(".")[0]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path, alias.name, []
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    parts = package.split(".")
                    parts = parts[: len(parts) - node.level + 1]
                    module = ".".join(parts + ([module] if module else []))
                yield path, module, [alias.name for alias in node.names]


def test_every_repro_import_resolves():
    missing = []
    for path, module, names in _imported_modules():
        if module != "repro" and not module.startswith("repro."):
            continue
        where = path.relative_to(ROOT)
        try:
            target = importlib.import_module(module)
        except ImportError:
            missing.append(f"{where}: {module}")
            continue
        for name in names:
            if hasattr(target, name):
                continue
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{where}: {module}.{name}")
    assert missing == []


def test_every_public_name_has_a_user_or_a_reason():
    unreachable = unreachable_names()
    only_tests_reach = [name for name in unreachable if name not in ALLOWLIST]
    allowlisted_but_used = sorted(set(ALLOWLIST) - set(unreachable))
    assert only_tests_reach == [], "\n".join(["only tests reach:"] + only_tests_reach)
    assert allowlisted_but_used == [], "allowlisted but used: " + ", ".join(
        allowlisted_but_used
    )


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    for qualname in unreachable_names():
        print(qualname, "" if qualname in ALLOWLIST else "(not allowlisted)")
