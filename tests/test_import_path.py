"""The package import stays cheap: every `syzcover verify` process pays for it.

So does the process's exit: the cyclic collection at interpreter teardown
walks every object the import made, whether or not `gc` is enabled, about
3.5 ms of a 54 ms cold `verify`.  The process entry (`cli.entry`) therefore
freezes the heap once `main` returns; tests/test_report_cli.py checks that
every way of starting the CLI goes through it.

`dataclasses` pulls in inspect, ast, dis and tokenize, and generates and
execs each decorated class's methods at import; `typing` is a large import
of its own.  `import syzcover` itself loads no submodule, so a caller
compiles only the modules it uses.  Each check runs in a fresh interpreter
without `site`, so nothing but the package itself loads modules.  A fresh
interpreter also shows every field a run builds, in `gf._FIELDS`.
"""

import subprocess
import sys

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter without `site`."""
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def _loaded_submodules(statement: str) -> list[str]:
    return _fresh(
        f"import sys; {statement}; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('syzcover.'))))"
    ).split()


def test_cli_import_loads_no_heavy_module():
    out = _fresh(
        "import sys; import syzcover.cli; "
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    assert out.split() == []


def test_cli_runs_load_no_option_parser():
    """A JSON and a text verify run, a usage error and `-h` through
    `cli.main` load neither argparse nor the gettext and locale modules it
    imports, nor json: report.to_json writes the JSON report."""
    out = _fresh(
        "import os, sys; from syzcover import cli; "
        "assert cli.main(['verify', '--prime', '3', '--checks', 'lemmas', '--output', os.devnull]) == 0; "
        "assert cli.main(['verify', '--prime', '3', '--format', 'text', '--output', os.devnull]) == 0; "
        "assert cli.main(['verify', '--prime', 'x']) == 2; "
        "assert cli.main(['-h']) == 0; "
        f"print(' '.join(m for m in ('argparse', 'gettext', 'locale', 'json', *{HEAVY!r}) if m in sys.modules))"
    )
    assert out.splitlines()[-1].split() == []


def test_package_import_loads_no_submodule():
    assert _loaded_submodules("import syzcover") == []


def test_symbolic_imports_skip_report_and_census():
    loaded = _loaded_submodules("from syzcover import cover, syz")
    assert {"syzcover.cover", "syzcover.syz"} <= set(loaded)
    assert "syzcover.report" not in loaded
    assert "syzcover.census" not in loaded


def test_every_exported_name_is_its_defining_modules_object():
    out = _fresh(
        "import syzcover\n"
        "for name in syzcover.__all__:\n"
        "    value = getattr(syzcover, name)\n"
        "    if name != '__version__':\n"
        "        home = __import__(value.__module__, fromlist=[name])\n"
        "        assert getattr(home, name) is value, name\n"
        "    print(name)\n"
        "from syzcover import run_verification\n"
        "assert run_verification is syzcover.report.run_verification\n"
    )
    assert len(out.split()) == 8
    assert "run_verification" in out.split()


def test_unknown_attribute_raises_attribute_error():
    out = _fresh(
        "import syzcover\n"
        "try:\n"
        "    syzcover.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(type(exc).__name__, 'no_such_name' in str(exc))\n"
        "try:\n"
        "    from syzcover import no_such_name\n"
        "except ImportError:\n"
        "    print('ImportError')\n"
    )
    assert out.split() == ["AttributeError", "True", "ImportError"]


def test_verify_builds_no_field_above_degree_two():
    """A full `verify --prime 7`, a full `verify --prime 11` and the census
    enumerated at p = 11 build only GF(p) and GF(p^2): the census holds its
    points as theta-coefficients."""
    fields = _fresh(
        "import os, sys; from syzcover import cli, gf; "
        "from syzcover.census import enumerate_fiber, reverify_census; "
        "assert cli.main(['verify', '--prime', '7', '--output', os.devnull]) == 0; "
        "assert cli.main(['verify', '--prime', '11', '--output', os.devnull]) == 0; "
        "assert reverify_census(enumerate_fiber(11))[0]; "
        "print(' '.join(f'{p}^{m}' for p, m in sorted(gf._FIELDS)))"
    ).split()
    assert {"7^2", "11^2"} <= set(fields)
    assert all(int(key.split("^")[1]) <= 2 for key in fields), fields
