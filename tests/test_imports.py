"""Import budget of the CLI.  No command loads scipy, and only the solve of
`weierstrass build` loads `numpy.fft`; only `dualize` and `weierstrass build`
load numpy: the package loads its modules on first access, and the point
commands compute on Python floats.  pytest has already imported numpy and
scipy, so each check runs in a fresh interpreter."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import gaussform

SRC = str(Path(gaussform.__file__).resolve().parents[1])

DOMAIN = "1.5:2.5:0.1:0.9"


def run_fresh(code, tmp_path, package="scipy"):
    """Run ``code`` in a new interpreter; return the modules of ``package``
    it loaded."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        from gaussform import cli

        def run(*argv, expect=0):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            assert code == expect, (argv, code)
    """) + textwrap.dedent(code) + textwrap.dedent(f"""
        print(" ".join(sorted(m for m in sys.modules
                              if m == {package!r} or m.startswith({package + "."!r}))))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_scipy(tmp_path):
    assert run_fresh("", tmp_path) == []


def test_commands_without_solve_or_fit_load_no_scipy(tmp_path):
    loaded = run_fresh(f"""
        run("zoo", "list")
        run("check", "forms", "corollary-6")
        run("check", "conformal", "ruled-6.7")
        run("pde", "residual", "--eq", "6.2", "--graph", "u*v/sqrt(1+v^2)",
            "--grid", "0.1:0.9:5x0.1:0.9:5")
        run("zoo", "sample", "ruled-6.2-2", "--param", "c=1", "--u", "0.3:0.8:4",
            "--v", "0.2:1.4:4", "--out", "ruled.csv")
        run("export", "obj", "--in", "ruled.csv", "--out", "ruled.obj")
        run("check", "forms", "--graph", "1+*u", expect=2)
        run("weierstrass", "build", "--g", "builtin:z", "--case", "1",
            "--domain", "{DOMAIN}", "--grid", "1", "--boundary", "builtin:radial",
            expect=2)
    """, tmp_path)
    assert loaded == []


def test_fit_loads_no_scipy(tmp_path):
    loaded = run_fresh("""
        run("dualize", "translational-6.6", "--fit-isometry")
    """, tmp_path)
    assert loaded == []


def test_solve_loads_no_scipy(tmp_path):
    loaded = run_fresh(f"""
        run("weierstrass", "build", "--g", "builtin:z", "--case", "1",
            "--domain", "{DOMAIN}", "--grid", "9", "--boundary", "builtin:radial")
    """, tmp_path)
    assert loaded == []


def test_solve_setup_loads_no_scipy_or_fft(tmp_path):
    # The set-up of the weierstrass-solve benchmark: fields, no solve.
    setup = """
        import numpy as np
        from gaussform import weierstrass
        weierstrass.radial_test_pair((1.5, 2.5, 0.1, 0.9), (129, 129))
        weierstrass.ComplexField.from_function(
            lambda z: np.conj(z) / 8.0, (1.5, 2.5, 0.1, 0.9), (129, 129),
            weierstrass.ROLE_NORMAL_MAP)
    """
    assert run_fresh(setup, tmp_path) == []
    assert run_fresh(setup, tmp_path, "numpy.fft") == []


def test_radial_test_pair_loads_no_scipy(tmp_path):
    loaded = run_fresh("""
        from gaussform import weierstrass
        weierstrass.radial_test_pair((1.5, 2.5, 0.1, 0.9), (33, 33))
    """, tmp_path)
    assert loaded == []


def test_import_loads_no_numpy(tmp_path):
    assert run_fresh("import gaussform", tmp_path, "numpy") == []


def test_point_commands_load_no_numpy(tmp_path):
    # The twelve cli-session commands that need no array, with their
    # arguments.  `export obj` reads a `zoo sample` CSV here, because the
    # benchmark's input comes from `weierstrass build`, which loads numpy.
    loaded = run_fresh("""
        run("zoo", "list")
        run("zoo", "sample", "ruled-6.2-2", "--param", "c=1", "--u", "0.3:0.8:16",
            "--v", "0.2:1.4:16", "--out", "ruled.csv")
        run("zoo", "sample", "no-such-family", "--u", "0:1:4", "--v", "0:1:4",
            expect=2)
        run("check", "forms", "translational-6.4", "--grid", "0.1:0.5:6x0.1:0.5:6")
        run("check", "forms", "corollary-6")
        run("check", "forms", "--graph", "1+u^2/8", "--space", "h3",
            "--graph-domain", "-1", "1", "-1", "1")
        run("check", "conformal", "ruled-6.7")
        run("check", "conformal", "control-bowl")
        run("pde", "residual", "--eq", "6.2", "--graph", "u*v/sqrt(1+v^2)",
            "--grid", "0.1:0.9:9x0.1:0.9:9")
        run("pde", "residual", "--eq", "6.1", "--graph", "1+u^2+v^2",
            "--grid=-0.2:0.2:5x-0.2:0.2:5", expect=1)
        run("export", "obj", "--in", "ruled.csv", "--out", "ruled.obj")
        run("check", "forms", "--graph", "1+*u", expect=2)
    """, tmp_path, "numpy")
    assert loaded == []


def test_submodules_load_on_first_access(tmp_path):
    started = run_fresh("", tmp_path, "gaussform")
    accessed = run_fresh("import gaussform; gaussform.duality.PAIRINGS", tmp_path,
                         "gaussform")
    assert "gaussform.duality" not in started and "gaussform.weierstrass" not in started
    assert "gaussform.duality" in accessed
