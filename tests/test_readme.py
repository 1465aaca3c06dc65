"""The README's examples run as written.

Every `page-entropy` line of its `sh` blocks runs in-process through
`cli.main` and must exit 0; where comment lines follow a command, they are
its expected output.  The `## Library` block is executed as Python, its
module bullets list exactly the package's exports, its backticked
signatures `name(a, b, ...)` name the fields of a record or the parameters
of a function, and each `json` block, a model file, loads with `from_json`
and runs `dims`.
"""

import importlib
import inspect
import json
import pkgutil
import re
import shlex
from pathlib import Path

import page_entropy
import page_entropy.cli as cli
from page_entropy.local_model import from_json

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    """(heading, body) of each fenced `language` block, in order."""
    heading, out = "", []
    for match in re.finditer(r"^(#+ [^\n]*)$|^```(\w*)\n(.*?)^```$",
                             README.read_text(), re.M | re.S):
        if match.group(1):
            heading = match.group(1)
        elif match.group(2) == language:
            out.append((heading, match.group(3)))
    return out


def _commands():
    """(argv, expected output lines) of each `page-entropy` command."""
    commands = []
    for _, body in _blocks("sh"):
        lines = body.replace("\\\n", " ").splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("page-entropy "):
                continue
            expected = []
            for after in lines[i + 1:]:
                if not after.startswith("# "):
                    break
                expected.append(after[2:])
            argv = shlex.split(line, comments=True)[1:]
            commands.append((argv, expected))
    return commands


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(
        json.dumps({"model": "fermions", "n": 0.5, "VA": [16, 32]}))
    commands = _commands()
    assert any(argv[0] == "--config" for argv, _ in commands)
    # the dims example carries its output: header and rows N = 0..4
    assert [len(expected) for argv, expected in commands
            if argv[0] == "dims"] == [6]
    for argv, expected in commands:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        if expected:
            assert out.splitlines() == expected, argv


def test_readme_library_block_runs():
    [body] = [body for heading, body in _blocks("python")
              if heading == "## Library"]
    exec(compile(body, "README.md", "exec"), {})


def test_readme_library_lists_every_export():
    section = README.read_text().split("\n## Library\n")[1]
    section = section.split("\n## ")[0]
    listed = [(name, module) for module, names
              in re.findall(r"^- `(\w+)`: (.*?)\.$", section, re.M | re.S)
              for name in re.findall(r"`(\w+)`", names)]
    assert sorted(name for name, _ in listed) == sorted(page_entropy.__all__)
    for name, module in listed:
        defined = importlib.import_module(f"page_entropy.{module}")
        assert getattr(defined, name) is getattr(page_entropy, name), name


def test_readme_library_signatures_match_the_code():
    section = README.read_text().split("\n## Library\n")[1]
    section = re.sub(r"^```.*?^```$", "", section.split("\n## ")[0],
                     flags=re.M | re.S)
    modules = [importlib.import_module(f"page_entropy.{info.name}")
               for info in pkgutil.iter_modules(page_entropy.__path__)]
    checked = 0
    for span in re.findall(r"`([^`]+)`", section):
        match = re.fullmatch(r"(?:(\w+)\.)?(\w+)\((\w+(?:, \w+)*)\)",
                             " ".join(span.split()))
        if not match:
            continue
        module, name, params = match.groups()
        owners = ([importlib.import_module(f"page_entropy.{module}")]
                  if module else modules)
        [obj] = {getattr(owner, name) for owner in owners
                 if hasattr(owner, name)}
        assert params.split(", ") == list(inspect.signature(obj).parameters), \
            span
        checked += 1
    assert checked >= 4


def test_readme_model_files_load_and_run(capsys, tmp_path):
    bodies = [body for _, body in _blocks("json")]
    assert len(bodies) == 2
    for i, body in enumerate(bodies):
        from_json(body)  # a key outside the format raises ConfigError
        path = tmp_path / f"model{i}.json"
        path.write_text(body)
        code = cli.main(["dims", "--model", str(path), "--V", "3",
                         "--N", "3"])
        assert code == 0, (body, capsys.readouterr().err)
