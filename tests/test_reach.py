"""Every package function is reached by the commands users run, and every
package constant is read by package code.

The CLI commands below run under ``sys.setprofile`` (and
``threading.setprofile``, for the threads they start) at a small band and
grid; the functions of ``src/zonotools`` that none of them enters must be
exactly the pinned ``UNREACHED`` list, each with its reason.  A function
that no command reaches and no list entry explains is dead code: delete
it, or move it to ``tests/oracles.py`` if it is an independent oracle of a
production route.  Likewise a module-level UPPER_CASE name that no code of
the package loads (found with ``dis`` over the compiled modules) is a dead
constant.
"""

import builtins
import contextlib
import dis
import inspect
import io
import os
import sys
import threading
import types

import zonotools
from zonotools import cli, harmonics, sphere

PACKAGE = os.path.dirname(os.path.realpath(zonotools.__file__))

#: "module:qualname" -> why no run below enters it.
UNREACHED = {
    "cli:_Parser.error": "argparse usage errors only (exit code 3)",
}

#: A cap pair off the coordinate planes, admissible for the default
#: transition 0.3: orthogonal, of equal heights, so its adapted frame holds
#: the default caps' design up to rounding, on other report-grid nodes.
OFF_PLANE_CAPS = "cap_u_center=0.3,0.4,0.866\ncap_v_center=0,0.866,-0.4\n"

#: A cap pair drawn by bench/workloads.draw_cap_pair whose band-64 design
#: (1089 columns, kappa_2 2.3e8) the ridge certificate does not cover, so
#: its solve is certified by |R|_F |R^-1|_F.
BAND_64_CAPS = (
    "cap_u_center=0.19494213534498145,-0.8525451189857243,-0.4849375052115025\n"
    "cap_u_height=0.9042824583571812\n"
    "cap_v_center=-0.1566899640834656,-0.4581826068864589,0.8749382571943298\n"
    "cap_v_height=0.911840525329805\n"
)


def package_sources():
    """The path of every source file of the package."""
    return [
        os.path.join(root, fname)
        for root, _, files in os.walk(PACKAGE)
        for fname in sorted(files)
        if fname.endswith(".py")
    ]


def package_modules():
    """Module name -> the compiled code of every module of the package."""
    found = {}
    for path in package_sources():
        with open(path, encoding="utf-8") as fh:
            module = os.path.relpath(path, PACKAGE)[:-3].replace(os.sep, ".")
            found[module] = compile(fh.read(), path, "exec")
    return found


def package_functions():
    """The code object -> "module:qualname" of every named function and
    method of the package's imported modules, nested ones included.

    The code objects are those the imported modules run, reached from each
    module's namespace (functions, the ``__wrapped__`` of cached ones, and
    the methods, properties and nested classes of its classes) and then
    through the constants of each function's code; a source file edited
    while the tests run cannot change them."""
    found = {}

    def add(code, module, qualname):
        path = os.path.realpath(module.__file__)
        if os.path.realpath(code.co_filename) != path or code in found:
            return  # defined elsewhere (dataclass methods, imports), or seen
        is_function = bool(code.co_flags & inspect.CO_NEWLOCALS)  # not a class body
        if is_function:
            found[code] = os.path.relpath(path, PACKAGE)[:-3].replace(os.sep, ".") + ":" + qualname
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                # lambdas and comprehensions belong to their function
                add(const, module, qualname + (".<locals>." if is_function else ".") + const.co_name)

    def visit(value, module, seen):
        if id(value) in seen:
            return
        seen.add(id(value))
        value = getattr(value, "__wrapped__", value)
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            for accessor in (value.fget, value.fset, value.fdel):
                if accessor is not None:
                    visit(accessor, module, seen)
        elif isinstance(value, types.FunctionType):
            add(value.__code__, module, value.__qualname__)
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for member in vars(value).values():
                visit(member, module, seen)

    for module in package_imports():
        seen = set()
        for value in list(vars(module).values()):
            visit(value, module, seen)
    return found


def package_imports():
    """The imported modules of the package."""
    return [
        module for name, module in sorted(sys.modules.items())
        if name == "zonotools" or name.startswith("zonotools.")
    ]


#: The instructions that read a name: a module's own globals, or another
#: module's attribute.
NAME_LOADS = {"LOAD_GLOBAL", "LOAD_NAME", "LOAD_ATTR", "LOAD_METHOD", "LOAD_FROM_DICT_OR_GLOBALS"}


def code_objects(code):
    """The code object and every one nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def clear_caches():
    """Empty the package's lru caches and its per-grid table store, so that
    cached functions and table builders run again whatever ran before."""
    for name, module in list(sys.modules.items()):
        if name == "zonotools" or name.startswith("zonotools."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    harmonics._GRID_TABLES.clear()


def run_commands(tmp):
    """The commands under test; returns their exit codes."""
    grid = sphere.build_grid(32, 64)
    density = os.path.join(tmp, "density.csv")
    sphere.grid_to_csv(density, grid, 1.0 + grid.nodes[:, 2] ** 2)
    # the same density with its layout columns in another format, which
    # grid_from_csv reads by its numeric check
    other = os.path.join(tmp, "density_e.csv")
    with open(density, encoding="utf-8") as src, open(other, "w", encoding="utf-8") as dst:
        dst.write(src.readline())
        for line in src:
            cells = line.split(",")
            dst.write(",".join(f"{float(x):.16e}" for x in cells[:3]) + "," + cells[3])
    caps = os.path.join(tmp, "caps.cfg")
    with open(caps, "w", encoding="utf-8") as fh:
        fh.write(OFF_PLANE_CAPS)
    band_64_caps = os.path.join(tmp, "band_64_caps.cfg")
    with open(band_64_caps, "w", encoding="utf-8") as fh:
        fh.write(BAND_64_CAPS)
    small = ["--band", "8", "--grid", "32,64", "--out", tmp]
    runs = [
        small + ["verify", "--suite", "all"],
        small + ["counterexample"],
        ["--config", caps] + small + ["counterexample"],
        # a design the ridge certificate does not cover
        ["--config", band_64_caps, "--band", "64", "--grid", "32,64", "--out", tmp, "counterexample"],
    ] + [
        small + ["transform", "--which", which, "--input", density,
                 "--output", os.path.join(tmp, f"{which}.csv")]
        for which in ("cosine", "funk", "symmetrize")
    ] + [
        small + ["transform", "--which", "symmetrize", "--input", other,
                 "--output", os.path.join(tmp, "symmetrize_e.csv")]
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        return [cli.main(argv) for argv in runs]


def test_unreached_functions_are_the_pinned_list(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    clear_caches()
    sys.setprofile(profile)
    threading.setprofile(profile)  # the threads the commands start
    try:
        codes = run_commands(str(tmp_path))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    # band 8 fails some rows (exit 2), but no run stops on an input error
    assert all(code in (0, 2) for code in codes[:4]) and codes[4:] == [0, 0, 0, 0]
    # every source file of the package is imported by now, so the imported
    # modules' functions are all of the package's
    assert sorted(os.path.realpath(m.__file__) for m in package_imports()) == sorted(package_sources())
    functions = package_functions()
    unreached = {name for code, name in functions.items() if code not in entered}
    assert sorted(unreached - set(UNREACHED)) == [], "no command reaches these"
    assert sorted(set(UNREACHED) - unreached) == [], "pinned, but reached or gone"


def test_functions_are_the_imported_code_objects(monkeypatch):
    # keyed on the code the imported modules run, read from no source file,
    # so that a file edited during a run cannot make its functions unreached
    def refuse(*args, **kwargs):
        raise AssertionError("package_functions read a file")

    monkeypatch.setattr(builtins, "open", refuse)
    functions = package_functions()
    assert functions[harmonics.ring_samples.__code__] == "harmonics:ring_samples"
    assert functions[cli._Parser.error.__code__] == "cli:_Parser.error"


def test_every_constant_is_read_by_package_code():
    modules = package_modules()
    constants = {
        f"{module}:{ins.argval}"
        for module, code in modules.items()
        for ins in dis.get_instructions(code)  # the module's own body
        if ins.opname == "STORE_NAME" and ins.argval.isupper()
    }
    loaded = {
        ins.argval
        for code in modules.values()
        for nested in code_objects(code)
        for ins in dis.get_instructions(nested)
        if ins.opname in NAME_LOADS
    }
    assert constants, "no constant found: the scan is broken"
    assert sorted(c for c in constants if c.split(":")[1] not in loaded) == [], "nothing reads these"
