"""Public-surface census: every public name in ``repro`` has a user.

Four checks keep code that nothing runs from coming back, and keep a
deletion from breaking a caller that the tests never import:

* every ``from repro... import`` in ``src/``, ``benchmarks/`` and
  ``examples/`` resolves;
* every public top-level function and class in ``src/repro`` is reachable,
  by name, from a root;
* every public method and property of a class in ``src/repro`` is named
  by a root.  A name counts when code reads it as an attribute, as a bare
  name, or as an identifier-shaped string (``getattr`` targets, and the
  method names a tracer wraps).  ``__dunder__`` methods are exempt: the
  runtime calls them;
* every defaulted parameter of a public function or method that a root
  calls is set by some root call: by keyword, or by enough positional
  arguments to reach it.  A call with ``*args`` or ``**kwargs`` sets every
  parameter.  A class call sets its ``__init__`` parameters; dataclass
  fields are records, not options, and are not checked.  Two kinds of
  parameter are kept by rule rather than by entry: ``name`` labels, and
  ``seed`` parameters, because every result stays reproducible from its
  seed (ROADMAP aim 3).

The roots are private and module-level code in ``src/repro`` (so the CLI
counts), everything in ``benchmarks/`` and ``examples/``, and every public
definition a root reaches.  Package re-exports and ``__all__`` lists are
not users, and neither are tests.  Names that fail a check stay only on
:data:`ALLOWLIST` with a reason, such as a reference that tests check a
layer against, or a parameter through which a test substitutes a fake.
Keys are
``module.name``, ``module.Class.method``, ``module.function(param)``,
``module.Class.method(param)`` and, for a constructor,
``module.Class(param)``.

``python tests/test_public_surface.py`` prints everything the census
reports.
"""

import ast
import importlib
import sys
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_ORACLE = "independent oracle for a layer (ROADMAP item 9)"
_SUBSTRATE = "test and oracle substrate"
_FAKE = "tests substitute a fake, or a small stand-in bound, through it"
_INVARIANCE = "an oracle varies it to show results do not depend on it"
_WRITER = "format writer, the round-trip half of a reader (DESIGN rows 5, 27)"
_ECONOMICS = "test-economics model that X6 cites"
_NUMPY = "numpy kernel helper, deleted with the kernel (ROADMAP item 7)"
_ENCODING = "small value/encoding helper"

#: Parameters kept by rule: labels, and the seeds results reproduce from.
_LABELS_AND_SEEDS = frozenset({"name", "seed"})

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
    "scan.patterns.ScanScheduler": _ORACLE,
    "scan.patterns.ScanOperation": _ORACLE,
    # Methods.
    "diagnosis.dictionary.FaultDictionary.build": _ORACLE,
    "diagnosis.dictionary.FaultDictionary.diagnostic_resolution": _ORACLE,
    "diagnosis.dictionary.FaultDictionary.equivalence_classes": _ORACLE,
    "diagnosis.dictionary.FaultDictionary.exact_matches": _ORACLE,
    "diagnosis.dictionary.FaultDictionary.lookup": _ORACLE,
    "scan.patterns.ScanScheduler.apply_pattern": _ORACLE,
    "scan.insertion.ScanDesign.chain_bits_to_state": _ORACLE,
    "sim.logicsim.LogicSimulator.run_sequence": _ORACLE,
    "compression.misr.MISR.absorb_stream": _ORACLE,
    "circuit.netlist.Netlist.fanout_cone": _SUBSTRATE,
    "sim.view.CombinationalView.num_outputs": _SUBSTRATE,
    "obs.report.RunReport.key_paths": _SUBSTRATE,
    # Options.
    "sim.store.ShardStore(clock)": _FAKE,
    "sim.goodcache.GoodMachineCache(max_bytes)": _FAKE,
    "scan.patfile.format_patterns(expects)": _WRITER,
    "bist.lbist.run_weighted_lbist(word_width)": _INVARIANCE,
    "compression.flow.run_compressed_atpg(word_width)": _INVARIANCE,
    "sim.seqfaultsim.SequentialFaultSimulator(word_width)": _INVARIANCE,
    "compression.flow.run_compressed_atpg(random_pattern_budget)": (
        "the scaling oracle varies it: one grading call per pattern set"
    ),
}


class Call(NamedTuple):
    """One call site, by the name it calls."""

    name: str
    positional: int
    keywords: FrozenSet[str]
    open: bool  # passes *args or **kwargs, so it may set every parameter


class Definition(NamedTuple):
    """A public function, class or method, and what its body uses."""

    name: str
    owner: Optional[str]  # the class's key, for a method
    references: Set[str]
    calls: List[Call]
    options: List[Tuple[str, Optional[int]]]  # (parameter, positional slot)


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


def _calls(code: ast.AST, owner: Optional[ast.ClassDef] = None) -> List[Call]:
    """Every call in ``code``.  Inside a class, ``cls(...)`` calls the class
    and ``super().__init__(...)`` calls its first base."""
    found = []
    for node in ast.walk(code):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name == "cls" and owner is not None:
                name = owner.name
        elif isinstance(func, ast.Attribute):
            name = func.attr
            bases = owner.bases if owner is not None else []
            if name == "__init__" and bases and isinstance(bases[0], ast.Name):
                name = bases[0].id
        else:
            continue
        starred = [isinstance(arg, ast.Starred) for arg in node.args]
        found.append(
            Call(
                name,
                starred.count(False),
                frozenset(k.arg for k in node.keywords if k.arg),
                any(starred) or any(k.arg is None for k in node.keywords),
            )
        )
    return found


def _options(function: ast.FunctionDef, bound: bool) -> List[Tuple[str, Optional[int]]]:
    """``(parameter, positional slot)`` for each defaulted parameter; the
    slot counts from the first argument a caller passes, and is ``None``
    for a keyword-only parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    shift = 1 if bound else 0
    options: List[Tuple[str, Optional[int]]] = [
        (arg.arg, slot - shift)
        for slot, arg in enumerate(positional)
        if slot >= first_default
    ]
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            options.append((arg.arg, None))
    return options


def _is_static(function: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in function.decorator_list
    )


def _is_export_list(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


class Census:
    """Which public definitions in ``package`` the roots reach and call.

    ``roots`` are directories whose files are roots as a whole; inside
    ``package``, private and module-level code is a root.
    """

    def __init__(self, package: Path, roots: Sequence[Path]):
        self.definitions: Dict[str, Definition] = {}
        used: Set[str] = set()
        calls: List[Call] = []
        for top in roots:
            for path in sorted(top.rglob("*.py")):
                tree = ast.parse(path.read_text(), filename=str(path))
                used |= _references(tree)
                calls += _calls(tree)
        for path in sorted(package.rglob("*.py")):
            parts = path.relative_to(package).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            prefix = "".join(f"{part}." for part in parts)
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in tree.body:
                if _is_export_list(node):
                    continue
                if isinstance(node, ast.ClassDef):
                    self._add_class(prefix + node.name, node)
                elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    self.definitions[prefix + node.name] = Definition(
                        node.name, None, _references(node), _calls(node),
                        _options(node, bound=False),
                    )
                else:
                    used |= _references(node)
                    calls += _calls(node)

        # A private class is a root; a method is reached when its class is
        # and its name is used.  Reaching a definition adds what it uses.
        self.reached = {
            key for key, d in self.definitions.items()
            if d.owner is None and d.name.startswith("_")
        }
        for key in self.reached:
            used |= self.definitions[key].references
            calls += self.definitions[key].calls
        frontier = True
        while frontier:
            frontier = False
            for key, d in self.definitions.items():
                if key in self.reached or d.name not in used:
                    continue
                if d.owner is None or d.owner in self.reached:
                    self.reached.add(key)
                    used |= d.references
                    calls += d.calls
                    frontier = True
        self.calls: Dict[str, List[Call]] = {}
        for call in calls:
            self.calls.setdefault(call.name, []).append(call)

    def _add_class(self, key: str, node: ast.ClassDef) -> None:
        references: Set[str] = set()
        calls: List[Call] = []
        options: List[Tuple[str, Optional[int]]] = []
        for statement in node.body:
            if isinstance(statement, ast.FunctionDef):
                if statement.name == "__init__":
                    options = _options(statement, bound=True)
                if not statement.name.startswith("_"):
                    self.definitions[f"{key}.{statement.name}"] = Definition(
                        statement.name, key, _references(statement),
                        _calls(statement, node),
                        _options(statement, bound=not _is_static(statement)),
                    )
                    continue
            references |= _references(statement)
            calls += _calls(statement, node)
        for part in node.decorator_list + node.bases + node.keywords:
            references |= _references(part)
        self.definitions[key] = Definition(node.name, None, references, calls, options)

    def unreachable_names(self) -> List[str]:
        """Public top-level names no root reaches."""
        return sorted(
            key for key, d in self.definitions.items()
            if d.owner is None and key not in self.reached
            and not d.name.startswith("_")
        )

    def unreached_methods(self) -> List[str]:
        """Public methods and properties no root names."""
        return sorted(
            key for key, d in self.definitions.items()
            if d.owner is not None and key not in self.reached
        )

    def unset_options(self) -> List[str]:
        """Defaulted parameters of called public definitions that no root
        call sets."""
        unset = []
        for key in sorted(self.reached):
            d = self.definitions[key]
            calls = self.calls.get(d.name)
            if d.name.startswith("_") or not calls:
                continue
            for parameter, slot in d.options:
                if parameter in _LABELS_AND_SEEDS:
                    continue
                if not any(
                    c.open or parameter in c.keywords
                    or (slot is not None and c.positional > slot)
                    for c in calls
                ):
                    unset.append(f"{key}({parameter})")
        return unset


def repro_census() -> Census:
    return Census(SRC / "repro", [ROOT / "benchmarks", ROOT / "examples"])


def _python_files() -> Iterator[Path]:
    for top in (SRC / "repro", ROOT / "benchmarks", ROOT / "examples"):
        yield from sorted(top.rglob("*.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


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


def _assert_allowlisted(reported: List[str], kind: str, census_keys: Set[str]) -> None:
    only_tests = [key for key in reported if key not in ALLOWLIST]
    allowlisted_but_used = sorted(
        key for key in ALLOWLIST if key in census_keys and key not in reported
    )
    assert only_tests == [], "\n".join([f"{kind} only tests use:"] + only_tests)
    assert allowlisted_but_used == [], "allowlisted but used: " + ", ".join(
        allowlisted_but_used
    )


def _method_keys(census: Census) -> Set[str]:
    return {k for k, d in census.definitions.items() if d.owner is not None}


def test_every_public_name_has_a_user_or_a_reason():
    census = repro_census()
    top_level = {k for k, d in census.definitions.items() if d.owner is None}
    _assert_allowlisted(census.unreachable_names(), "names", top_level)


def test_every_public_method_has_a_user_or_a_reason():
    census = repro_census()
    _assert_allowlisted(census.unreached_methods(), "methods", _method_keys(census))


def test_every_option_is_set_by_a_caller_or_has_a_reason():
    census = repro_census()
    unset = census.unset_options()
    options = {key for key in ALLOWLIST if key.endswith(")")}
    _assert_allowlisted(unset, "options", options)


def test_every_allowlist_entry_names_something():
    census = repro_census()
    keys = set(census.definitions)
    stale = [key for key in ALLOWLIST if key.split("(")[0] not in keys]
    assert stale == []


# -- the census on small synthetic trees --------------------------------

_PACKAGE = '''
class Engine:
    def used(self):
        return 1

    def only_tests(self):
        return 2

    def by_string(self):
        return 3

    def __repr__(self):
        return "Engine"


def solve(netlist, limit=64, restarts=3, depth=1, seed=0, name="x"):
    return netlist


def spread(options, width=64):
    return options
'''

_ROOT = '''
from pkg.core import Engine, solve, spread

engine = Engine()
engine.used()
getattr(engine, "by_string")()
solve(None, 32)
solve(None, depth=2)
spread(None, **{"width": 8})
'''


def _synthetic(tmp_path: Path) -> Census:
    package = tmp_path / "pkg"
    roots = tmp_path / "roots"
    package.mkdir()
    roots.mkdir()
    (package / "__init__.py").write_text("")
    (package / "core.py").write_text(_PACKAGE)
    (roots / "flow.py").write_text(_ROOT)
    (tmp_path / "test_core.py").write_text("Engine().only_tests()\n")
    return Census(package, [roots])


def test_census_reports_a_method_only_tests_call(tmp_path):
    assert _synthetic(tmp_path).unreached_methods() == ["core.Engine.only_tests"]


def test_census_counts_a_getattr_string_as_a_use(tmp_path):
    assert "core.Engine.by_string" not in _synthetic(tmp_path).unreached_methods()


def test_census_options(tmp_path):
    # limit is set positionally, depth by keyword, spread's width through
    # **kwargs; seed and name are kept by rule; restarts is set by nobody.
    assert _synthetic(tmp_path).unset_options() == ["core.solve(restarts)"]


def test_census_method_of_an_unreached_class_is_reported(tmp_path):
    _synthetic(tmp_path)
    (tmp_path / "pkg" / "extra.py").write_text(
        "class Orphan:\n    def used(self):\n        pass\n"
    )
    census = Census(tmp_path / "pkg", [tmp_path / "roots"])
    assert census.unreachable_names() == ["extra.Orphan"]
    assert "extra.Orphan.used" in census.unreached_methods()


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    census = repro_census()
    for title, keys in (
        ("names", census.unreachable_names()),
        ("methods", census.unreached_methods()),
        ("options", census.unset_options()),
    ):
        print(f"{title}: {len(keys)}")
        for key in keys:
            print(" ", key, "" if key in ALLOWLIST else "(not allowlisted)")
