"""Repository rules that the tests enforce."""

import ast
import doctest
import importlib.util
import json
import os
import pathlib
import platform
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "mechwords"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so no invariant may live in one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def test_import_builds_no_parser():
    # the CLI parser is built on the first main() call, never at import, so
    # library users do not pay for it
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import mechwords, mechwords.cli; "
             "print(mechwords.cli.build_parser.cache_info().currsize)")
    result = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC.parent)],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "0\n"


def test_public_names_and_module_map_resolve():
    # every exported name exists and is listed in the README's module map, and
    # every name the map lists under a module is defined on that module
    import mechwords

    missing = [name for name in mechwords.__all__ if not hasattr(mechwords, name)]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    module_map = readme.split("## Module map", 1)[1].split("\n## ", 1)[0]
    entries = re.findall(r"^- `mechwords\.(\w+)` —(.*?)(?=^- |\Z)", module_map, re.M | re.S)
    assert entries
    mapped = set()
    for module_name, text in entries:
        module = importlib.import_module(f"mechwords.{module_name}")
        for listed in re.findall(r"`([^`]+)`", text):
            names = [name for name in listed.split("/") if name.isidentifier()]
            mapped.update(names)
            missing += [f"{module_name}.{name}" for name in names
                        if not hasattr(module, name)]
    assert not missing, f"names that do not resolve: {missing}"
    unmapped = [name for name in mechwords.__all__ if name not in mapped]
    assert not unmapped, f"exported names missing from the module map: {unmapped}"


def test_readme_quick_start_runs():
    # the python block under "Library quick start" holds doctest examples; run it
    # on its own so the closing fence is not read as expected output
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "quick start", "README.md", 0)
    report = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert attempted and not failed, "".join(report)


def test_readme_cli_transcript_runs(capsys):
    # every "$ mechwords ..." line of the command-line section prints the lines
    # shown under it and exits with the status of its "# exit N" comment (0
    # when there is none)
    from mechwords import cli

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    transcript = [chunk.splitlines() for chunk in block.split("$ mechwords ")[1:]]
    assert transcript
    for command, *shown in transcript:
        expected_code, lines = 0, []
        for line in shown:
            line, _, status = line.partition("# exit ")
            if status:
                expected_code = int(status)
            if line.strip():
                lines.append(line.rstrip())
        code = cli.main(command.split())
        captured = capsys.readouterr()
        assert (code, (captured.out + captured.err).splitlines()) == (
            expected_code, lines), command


def test_private_names_are_used_in_src():
    # every private module-level name of src/ is loaded somewhere in src/
    # outside its own definition, so a refactor leaves no orphaned wrapper,
    # table or helper behind
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    defined = {}
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    private = {name: node for name, node in defined.items()
               if name.startswith("_") and not name.startswith("__")}
    assert private
    inside = {name: set(map(id, ast.walk(node))) for name, node in private.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in private and id(node) not in inside[name]:
                used.add(name)
    unused = sorted(set(private) - used)
    assert not unused, f"private names nothing in src/ uses: {unused}"


def test_cli_has_one_input_error_path():
    # every input error is a ValueError, and main's one handler is the only
    # place that turns it into exit status 1
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    handlers = [(function.name, ast.unparse(node.type))
                for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                for node in ast.walk(function) if isinstance(node, ast.ExceptHandler)]
    assert handlers == [("main", "ValueError")]


def test_cli_only_renders():
    # the CLI takes from the library its public names, the domain checks and
    # one chain entry per verdict command; every kernel stays behind those
    allowed = {"_check_slope", "_check_window", "_check_windows", "_plan_windows"}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names]
    assert imported
    private = [name for name in imported if name.startswith("_") and name not in allowed]
    assert not private, f"private library names the CLI imports: {private}"


def test_kernel_timer_runs_at_tiny_size():
    # tools/kernels.py, scaled down: one JSON line per table row, in order,
    # each with ordered quartiles and the interpreter it ran on
    tool = ROOT / "tools" / "kernels.py"
    result = subprocess.run([sys.executable, str(tool), "--scale", "0.0001"],
                            capture_output=True, text=True, check=True, timeout=60)
    spec = importlib.util.spec_from_file_location("kernels", tool)
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    assert [line["kernel"] for line in lines] == [name for name, _, _ in kernels.TABLE]
    for line in lines:
        assert line["n"] >= 2 and line["repeats"] == kernels.REPEATS
        assert 0 <= line["q1_ms"] <= line["median_ms"] <= line["q3_ms"], line
        assert line["python"] == platform.python_version()
        assert line["cpu_count"] == os.cpu_count()


def test_output_corpus_runs_at_tiny_size():
    # tools/corpus.py, scaled down: one JSON line per section, in order, and
    # the same hashes on a second run. No hash is pinned, since a change may
    # alter output on purpose
    tool = ROOT / "tools" / "corpus.py"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    runs = [subprocess.run([sys.executable, str(tool), "--scale", "0.01"], env=env,
                           capture_output=True, text=True, check=True, timeout=60).stdout
            for _ in range(2)]
    spec = importlib.util.spec_from_file_location("corpus", tool)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    lines = [json.loads(line) for line in runs[0].splitlines()]
    assert [line["section"] for line in lines] == [name for name, _ in corpus.SECTIONS]
    assert all(line["requests"] > 0 and len(line["sha256"]) == 64 for line in lines), lines
    assert runs[1] == runs[0]
