"""The package's modules import one way, from module-level statements only.

Each module may import only from the modules before it in LAYERS, no
import sits inside a function, where it would hide a cycle, and every
name a module imports is used in it.  Only vmn names the parts of family 4,
and only theta and vmn read the shadow pairs, the g_pairs of theta's odd
eta-theta records.  Every infinite product stops by `core.fixed_product`
(qpoch, and with it eta, theta's triple product and vmn's product form),
and no module outside core calls `converging`; every infinite series stops
by `core.fixed_sum`, and only mu's own series and Kang's g_2 series hand
their sides to it: every theta-type series is a term
on `core.lattice_sum`, which only R, the Lambert sums and theta's own
sums call, and qseries sums none.  Two theta-type sums are finite and
have no stopping rule: the erfcx sums of a ray from a cusp
(`eichler._erfcx_sum`), whose table's length N (`eichler._gauss_side`) is
fixed in advance at the height 1/q where both sums start; they call none
of the series fronts nor `g_ab`.  No module calls mpmath's erfc: R's erfc
terms and the rays' erfcx terms take `core.fixed_erfcx`.  Every public
function or class has a caller in the package or in the benchmark.
"""

import ast
import os

import pytest

import etamock

SRC = os.path.dirname(os.path.abspath(etamock.__file__))
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")

# bottom to top; the package namespace re-exports everything below the CLI
LAYERS = ("core", "qseries", "theta", "mu", "vmn", "quantum", "eichler", "verify",
          "cli", "__init__")


def _modules():
    return sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))


def _source(module):
    with open(os.path.join(SRC, module + ".py")) as fh:
        return fh.read()


def _tree(module):
    return ast.parse(_source(module), filename=module + ".py")


def _package_targets(node):
    """Names of the package modules an import statement reads from."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            return [parts[1]] if parts[0] == "etamock" and len(parts) > 1 else []
        if node.module:
            return [node.module.split(".")[0]]
        return [alias.name for alias in node.names]
    return [alias.name.split(".")[1] for alias in node.names
            if alias.name.startswith("etamock.")]


def test_every_module_has_a_layer():
    assert set(_modules()) == set(LAYERS)


@pytest.mark.parametrize("module", _modules())
def test_no_import_inside_a_function(module):
    local = [
        "%s:%d" % (func.name, node.lineno)
        for func in ast.walk(_tree(module))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not local, "function-local imports in %s: %s" % (module, local)


@pytest.mark.parametrize("module", _modules())
def test_imports_point_down_the_layers(module):
    rank = LAYERS.index(module)
    upward = [
        "%s (line %d)" % (target, node.lineno)
        for node in ast.walk(_tree(module))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for target in _package_targets(node)
        if target not in LAYERS[:rank]
    ]
    assert not upward, "%s imports from its own layer or above: %s" % (module, upward)


@pytest.mark.parametrize("module", [m for m in _modules() if m != "__init__"])
def test_every_imported_name_is_used(module):
    # the namespace package re-exports what it imports; a statement marked
    # "noqa: F401" keeps names importable from a module that does not use them
    lines = _source(module).splitlines()
    tree = _tree(module)
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        and "noqa: F401" not in " ".join(lines[node.lineno - 1:node.end_lineno])
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line) for name, line in sorted(imported.items())
              if name not in used]
    assert not unused, "%s imports names it does not use: %s" % (module, unused)


def _callers(tree, name):
    """The names of the innermost functions that call `name`."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == name:
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("module", [m for m in _modules() if m != "core"])
def test_series_walk_through_lattice_sum(module):
    # outside core nothing calls converging: a series takes its walk and its
    # stop from lattice_sum or fixed_sum, a product from fixed_product
    extra = _callers(_tree(module), "converging")
    assert not extra, "%s calls converging in %s" % (module, sorted(map(str, extra)))


def test_only_mu_series_builds_its_own_sides():
    # every theta-type series, g_{a,b} and the character sums among them, is
    # a term on core.lattice_sum; only mu's series, whose two sides are
    # different formulas, and the g_2 series, a ratio of running products on
    # one side, give fixed_sum sides of their own
    callers = {(module, function) for module in _modules() if module != "core"
               for function in _callers(_tree(module), "fixed_sum")}
    assert callers == {("mu", "_mu_series"), ("mu", "g2_universal")}
    callers = {(module, function) for module in _modules() if module != "core"
               for function in _callers(_tree(module), "lattice_sum")}
    assert callers == {("mu", "R_correction"), ("vmn", "_lambert_sum"), ("theta", "_theta_sum"),
                       ("theta", "_g_direct"), ("theta", "_character_sum")}


def _calls(function):
    """The names of the functions and methods that `function` calls."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(function) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize("module, name", [("qseries", "qpoch"), ("theta", "_theta_product"),
                                          ("vmn", "_product_form")])
def test_every_infinite_product_is_one_fixed_product(module, name):
    # each product hands its starts to core.fixed_product and multiplies
    # no factor of its own
    function, = [stmt for stmt in _tree(module).body
                 if isinstance(stmt, ast.FunctionDef) and stmt.name == name]
    called = _calls(function)
    assert "fixed_product" in called
    assert not called & {"converging", "fixed_mul", "fixed_walk", "qpoch"}, sorted(called)


def test_the_ray_node_sum_is_a_finite_table_sum():
    # a ray from a cusp sums its fixed tables on integers: no stopping
    # rule, no series front and no fold of tau
    functions = {stmt.name: stmt for stmt in _tree("eichler").body
                 if isinstance(stmt, ast.FunctionDef)}
    for name in ("_gauss_side", "_erfcx_sum"):
        called = _calls(functions[name])
        assert called, name
        assert not called & {"converging", "fixed_sum", "lattice_sum", "g_ab", "reduce_tau",
                             "e2pi"}, (name, sorted(called))


@pytest.mark.parametrize("module", _modules())
def test_erfc_only_through_the_integer_kernel(module):
    # R's erfc terms and the rays' erfcx terms take core.fixed_erfcx; no
    # module reads mpmath's erfc
    refs = [node.lineno for node in ast.walk(_tree(module))
            if isinstance(node, ast.Attribute) and node.attr == "erfc"
            or isinstance(node, ast.alias) and node.name == "erfc"]
    assert not refs, "%s calls mpmath's erfc at lines %s" % (module, refs)


@pytest.mark.parametrize("module", [m for m in _modules() if m != "vmn"])
def test_family_four_split_only_in_vmn(module):
    # vmn.parts and vmn.family are the one place that knows 4 = 4p + 4pp
    refs = [node.lineno for node in ast.walk(_tree(module))
            if isinstance(node, ast.Constant) and node.value in ("4p", "4pp")]
    assert not refs, "%s names the parts of family 4 at lines %s" % (module, refs)


@pytest.mark.parametrize("module", [m for m in _modules() if m not in ("theta", "vmn")])
def test_shadow_pairs_read_only_in_theta_and_vmn(module):
    # theta types the pairs, the g_pairs of each odd record, and vmn keys
    # them by label (vmn._SHADOW); the other modules take c_m, weights and
    # Table 2 from those.  The field's name is used nowhere else in the
    # package, so the scan below sees every read (VmnSpec.shadow_pairs()
    # is another name).
    refs = [node.lineno for node in ast.walk(_tree(module))
            if isinstance(node, ast.alias) and node.name == "g_pairs"
            or isinstance(node, ast.Attribute) and node.attr == "g_pairs"
            or isinstance(node, ast.Name) and node.id == "g_pairs"]
    assert not refs, "%s reads the g_pairs of theta's records at lines %s" % (module, refs)


def _references(tree):
    """The names and attributes a module reads, leaving out a function's or
    class's own name inside its definition."""
    refs = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name != own:
                refs.add(name)
    return refs


def _benchmark_references():
    """What perfbench reads: names, attributes and the function names that
    spans.LAYERS gives as strings."""
    refs = set()
    for name in os.listdir(PERFBENCH):
        if name.endswith(".py"):
            with open(os.path.join(PERFBENCH, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            refs |= _references(tree)
            if name == "spans.py":
                layers, = [stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                           and [t.id for t in stmt.targets] == ["LAYERS"]]
                refs |= {node.value for node in ast.walk(layers)
                         if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return refs


def test_every_public_definition_has_a_caller():
    # the tests do not count, nor does the re-export in __init__
    modules = [m for m in _modules() if m != "__init__"]
    refs = _benchmark_references().union(*(_references(_tree(m)) for m in modules))
    public = ["%s.%s" % (module, stmt.name) for module in modules for stmt in _tree(module).body
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_")]
    unused = [name for name in public if name.split(".")[1] not in refs]
    assert not unused, "public definitions that nothing in the package calls: %s" % unused
