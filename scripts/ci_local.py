#!/usr/bin/env python3
"""Run the CI workflow's shell steps on this machine.

Reads ``.github/workflows/ci.yml`` with PyYAML and runs every job's
``run:`` steps with the current Python interpreter, so the commands are
never copied by hand.  Each job runs in a fresh copy of the working tree
(uncommitted changes included, VCS data and caches left out), as a hosted
runner starts each job from a fresh checkout.  A job's matrix only picks
the Python that ``actions/setup-python`` installs, so each job runs once,
on this interpreter.

Steps that only make sense on a hosted runner are skipped with a reason:
``uses:`` actions, ``pip install`` steps, steps that need a GitHub
expression, and steps whose tool is not installed (``ruff`` where it is
missing).  The script prints one ``PASS`` / ``FAIL`` / ``SKIPPED(reason)``
line per step, the tail of a failing step's output, and exits nonzero if
any step failed::

    python scripts/ci_local.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "ci.yml")

#: Not copied into a job's working tree: VCS data, caches, run outputs.
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info",
    "ci-store",
)

#: Output lines shown for a failing step.
FAIL_TAIL = 40


def commands(script: str):
    """The program each logical line of a shell script starts with."""
    for line in script.replace("\\\n", " ").splitlines():
        words = [word for word in line.split() if word != "!"]
        while words and "=" in words[0] and not words[0].startswith("="):
            words.pop(0)  # VAR=value prefixes
        if words and not words[0].startswith("#"):
            yield words[0]


def skip_reason(step: dict):
    """Why ``step`` cannot run here, or ``None`` if it can."""
    if "uses" in step:
        return f"uses: {step['uses']}"
    script = step["run"]
    if "pip install" in script:
        return "pip install"
    if "${{" in script:
        return "GitHub expression"
    for program in commands(script):
        if shutil.which(program) is None:
            return f"{program} not installed"
    return None


def run_step(script: str, workdir: str, env: dict):
    """Run ``script`` as a hosted runner's bash would; ``(ok, output, s)``."""
    started = time.perf_counter()
    completed = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    return completed.returncode == 0, completed.stdout, time.perf_counter() - started


def main() -> int:
    with open(WORKFLOW, encoding="utf-8") as handle:
        jobs = yaml.safe_load(handle)["jobs"]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ci-local-") as scratch:
        # `python` / `python3` in every step resolve to this interpreter.
        shims = os.path.join(scratch, "bin")
        os.mkdir(shims)
        for name in ("python", "python3"):
            os.symlink(sys.executable, os.path.join(shims, name))
        base_env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        base_env["PATH"] = shims + os.pathsep + base_env.get("PATH", "")
        for job_name, job in jobs.items():
            print(f"== {job_name}", flush=True)
            workdir = os.path.join(scratch, job_name)
            shutil.copytree(ROOT, workdir, ignore=IGNORED, symlinks=True)
            env = {**base_env, **job.get("env", {})}
            for step in job["steps"]:
                label = step.get("name") or step.get("uses") or step["run"].split("\n")[0]
                reason = skip_reason(step)
                if reason is not None:
                    print(f"SKIPPED({reason})  {label}", flush=True)
                    continue
                ok, output, seconds = run_step(
                    step["run"], workdir, {**env, **step.get("env", {})}
                )
                print(f"{'PASS' if ok else 'FAIL'}  {label} ({seconds:.1f} s)", flush=True)
                if not ok:
                    failed += 1
                    for line in output.splitlines()[-FAIL_TAIL:]:
                        print(f"    {line}")
    print(f"{failed} step(s) failed" if failed else "all runnable steps passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
