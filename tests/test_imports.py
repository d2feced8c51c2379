"""Import budget of the CLI: only the solve of `weierstrass build` loads
scipy.  pytest has already imported scipy, so each check runs in a fresh
interpreter."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import gaussform

SRC = str(Path(gaussform.__file__).resolve().parents[1])

DOMAIN = "1.5:2.5:0.1:0.9"


def run_fresh(code, tmp_path):
    """Run ``code`` in a new interpreter; return the scipy modules it loaded."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        from gaussform import cli

        def run(*argv, expect=0):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
            assert code == expect, (argv, code)
    """) + textwrap.dedent(code) + textwrap.dedent("""
        print(" ".join(sorted(m for m in sys.modules
                              if m == "scipy" or m.startswith("scipy."))))
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


def test_solve_loads_scipy(tmp_path):
    loaded = run_fresh(f"""
        run("weierstrass", "build", "--g", "builtin:z", "--case", "1",
            "--domain", "{DOMAIN}", "--grid", "9", "--boundary", "builtin:radial")
    """, tmp_path)
    assert "scipy.sparse.linalg" in loaded and "scipy.integrate" in loaded
