"""Every package function is reached by the commands users run, and every
package constant is read by package code.

The CLI commands below run under ``sys.setprofile`` at a small band and
grid; the functions of ``src/zonotools`` that none of them enters must be
exactly the pinned ``UNREACHED`` list, each with its reason.  A function
that no command reaches and no list entry explains is dead code: delete
it, or move it to ``tests/oracles.py`` if it is an independent oracle of a
production route.  Likewise a module-level UPPER_CASE name that no code of
the package loads (found with ``dis`` over the compiled modules) is a dead
constant.
"""

import contextlib
import dis
import inspect
import io
import os
import sys
import types

import zonotools
from zonotools import cli, harmonics, sphere

PACKAGE = os.path.dirname(os.path.realpath(zonotools.__file__))

#: "module:qualname" -> why no run below enters it.
UNREACHED = {
    "cli:_Parser.error": "argparse usage errors only (exit code 3)",
}

#: A cap pair that no coordinate reflection fixes, so its design is solved
#: in the adapted frame; admissible for the default transition 0.3.
OFF_PLANE_CAPS = "cap_u_center=0.3,0.4,0.866\ncap_v_center=0,0.866,-0.4\n"


def package_modules():
    """Module name -> the compiled code of every module of the package."""
    found = {}
    for root, _, files in os.walk(PACKAGE):
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(root, fname)
                with open(path, encoding="utf-8") as fh:
                    module = os.path.relpath(path, PACKAGE)[:-3].replace(os.sep, ".")
                    found[module] = compile(fh.read(), path, "exec")
    return found


def package_functions():
    """(file, first line, name) -> "module:qualname" of every named function
    and method defined in the package, nested ones included."""
    found = {}
    for module, code in package_modules().items():
        path = code.co_filename
        stack = [(code, "", False)]
        while stack:
            code, prefix, in_function = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue  # lambdas and comprehensions belong to their function
                qualname = prefix + (".<locals>." if in_function else ".") + const.co_name
                is_function = bool(const.co_flags & inspect.CO_NEWLOCALS)  # not a class body
                if is_function:
                    found[(path, const.co_firstlineno, const.co_name)] = f"{module}:{qualname[1:]}"
                stack.append((const, qualname, is_function))
    return found


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
    small = ["--band", "8", "--grid", "32,64", "--out", tmp]
    runs = [
        small + ["verify", "--suite", "all"],
        small + ["counterexample"],
        ["--config", caps] + small + ["counterexample"],
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
    functions = package_functions()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    clear_caches()
    sys.setprofile(profile)
    try:
        codes = run_commands(str(tmp_path))
    finally:
        sys.setprofile(None)
    # band 8 fails some rows (exit 2), but no run stops on an input error
    assert all(code in (0, 2) for code in codes[:3]) and codes[3:] == [0, 0, 0, 0]
    entered = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered}
    unreached = {name for key, name in functions.items() if key not in entered}
    assert sorted(unreached - set(UNREACHED)) == [], "no command reaches these"
    assert sorted(set(UNREACHED) - unreached) == [], "pinned, but reached or gone"


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
