"""List the `src/sarcse` lines that a test run, or a run of the commands, never executed.

As an opt-in pytest plugin, from the repository root with the tests
directory importable:

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

it traces every line the package runs in this process (the `python -m
sarcse` subprocesses some tests start are not traced) and, after the
summary, prints each line of the package's compiled code that never ran.
The default test run does not load this file. As a script,

    PYTHONPATH=src python tests/linetrace.py

it runs the six subcommands in process, as `python -m sarcse` runs them, on
the bundled data at small settings, plus a 2-step `train` at the paper width
(`enc_channels=500`, batch 64), and prints the lines those runs never
executed: code that only tests reach. Either way, lines of `raise`
statements are left out, so what it lists is code that would run when
nothing fails.
"""

import ast
import runpy
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sarcse"
_PREFIX = str(PACKAGE)
_ran: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PREFIX):
        return None
    _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _code_lines(code) -> set[int]:
    """Every line of `code` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}     # None or 0: no source line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def never_ran(path: Path) -> list[int]:
    """Lines of `path` compiled to code that never ran, `raise` statements left out."""
    source = path.read_text(encoding="utf-8")
    raised = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            raised.update(range(node.lineno, node.end_lineno + 1))
    lines = _code_lines(compile(source, str(path), "exec")) - raised
    return sorted(line for line in lines if (str(path), line) not in _ran)


def report() -> list[str]:
    """`src/sarcse/<file>:<line>: <source>` for every line of the package that never ran."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        out += [f"src/sarcse/{path.name}:{line}: {text[line - 1].strip()}" for line in never_ran(path)]
    return out


def pytest_configure(config):
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    terminalreporter.write_sep("-", "src/sarcse lines never run (raise statements left out)")
    for line in report():
        terminalreporter.write_line(line)


def run_commands(out: Path) -> None:
    """The six subcommands on the bundled data, each run as `python -m sarcse`
    runs it, writing under `out`; exits with the first nonzero exit code."""
    data = PACKAGE.parent.parent / "data"
    corpus, dev, test = (str(data / name) for name in ("toy_corpus.txt", "toy_sts_dev.tsv", "toy_sts_test.tsv"))
    vectors = out / "vectors.txt"       # two vocabulary tokens, one other, a blank line
    vectors.write_text("".join(f"{tok} {' '.join(['0.25'] * 32)}\n" for tok in ("the", "market", "qwerty")) + "\n",
                       encoding="utf-8")
    config = out / "small.conf"
    config.write_text(f"# small settings\nmax_steps = 4\nbatch_size = 16\neval_every = 2\ndropout = 0.2\n"
                      f"pretrained_path = {vectors}\n", encoding="utf-8")
    small = ["--config", str(config), "--set", "seed=3"]
    one_line = out / "one_sentence.txt"
    one_line.write_text("a single sentence to embed\n", encoding="utf-8")
    ckpt = str(out / "train" / "best.ckpt")
    commands = [
        ["build-vocab", corpus, "--out", str(out / "vocab")],
        ["train", corpus, dev, "--out", str(out / "train"), *small],
        ["train", corpus, dev, "--out", str(out / "wide"), "--set", "enc_channels=500",
         "--set", "batch_size=64", "--set", "max_steps=2", "--set", "eval_every=0"],
        ["eval", ckpt, test, "--out", str(out / "eval"), "--token-report"],
        ["embed", ckpt, corpus, "--out", str(out / "corpus.tsv")],     # formatted in numpy
        ["embed", ckpt, str(one_line), "--out", str(out / "one.tsv")],  # formatted by repr
        ["ablate", corpus, dev, test, "--out", str(out / "ablate"), *small],
        ["sweep-theta", corpus, dev, test, "--values", "0,0.5", "--out", str(out / "sweep"), *small],
    ]
    for argv in commands:
        sys.argv = ["sarcse", *argv]
        try:
            runpy.run_module("sarcse", run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                raise SystemExit(f"sarcse {' '.join(argv)}: exit {exc.code}") from None


if __name__ == "__main__":
    sys.settrace(_global)       # before the package is imported, so its module lines count
    with tempfile.TemporaryDirectory() as tmp:
        run_commands(Path(tmp))
    sys.settrace(None)
    print("\n".join(report()))
