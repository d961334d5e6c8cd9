"""Keep the documentation honest: files, ids and names it references exist."""

import ast
import importlib
import importlib.util
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self):
        return (REPO / "README.md").read_text()

    def test_examples_listed_exist(self, readme):
        for match in re.findall(r"`examples/(\w+\.py)`", readme):
            assert (REPO / "examples" / match).exists(), match

    def test_docs_listed_exist(self, readme):
        for match in re.findall(r"`docs/(\w+\.md)`", readme):
            assert (REPO / "docs" / match).exists(), match

    def test_experiment_ids_valid(self, readme):
        from repro.bench.experiments import EXPERIMENTS

        block = re.search(r"Ids: `([^`]+)`", readme)
        assert block is not None
        for exp_id in block.group(1).split():
            assert exp_id in EXPERIMENTS, exp_id

    def test_quickstart_snippet_runs(self, readme):
        """The README's first code block must actually execute."""
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks
        snippet = blocks[0].replace("100_000", "5_000").replace("12_345", "1_234")
        namespace = {}
        exec(snippet, namespace)  # noqa: S102 - executing our own docs
        assert namespace["position"] == 1_234


class TestDesignDoc:
    @pytest.fixture(scope="class")
    def design(self):
        return (REPO / "DESIGN.md").read_text()

    def test_modules_in_inventory_exist(self, design):
        for match in re.findall(r"`repro/([\w/]+\.py)`", design):
            assert (REPO / "src" / "repro" / match).exists(), match

    def test_experiment_index_ids_exist(self, design):
        from repro.bench.experiments import EXPERIMENTS

        for exp_id in re.findall(r"\| `((?:fig|table|sec|ext)[\w.]+)` \|", design):
            assert exp_id in EXPERIMENTS, exp_id

    def test_bench_targets_exist(self, design):
        for match in re.findall(r"`benchmarks/(test_bench_\w+\.py)`", design):
            assert (REPO / "benchmarks" / match).exists(), match

    def test_paper_confirmation_present(self, design):
        assert "Benchmarking Learned" in design
        assert "Marcus" in design


class TestDocPaths:
    #: A backticked source path: ``repro/...py`` (under ``src/``),
    #: ``tests/...py`` or ``benchmarks/...py``.
    PATH = re.compile(r"`(?:src/)?((repro|tests|benchmarks)/[\w/]+\.py)")

    def test_backticked_source_paths_exist(self):
        docs = sorted((REPO / "docs").glob("*.md"))
        missing = []
        for doc in docs + [REPO / "README.md", REPO / "DESIGN.md"]:
            for path, top in self.PATH.findall(doc.read_text()):
                root = REPO / "src" if top == "repro" else REPO
                if not (root / path).exists():
                    missing.append(f"{doc.name}: {path}")
        assert not missing, missing


class TestEnvVarNames:
    """Every ``REPRO_*`` name the docs or the package's docstrings and
    comments mention is a string literal in some ``repro`` module, so a
    removed environment variable cannot stay documented."""

    NAME = re.compile(r"REPRO_[A-Z_]+")

    def test_named_env_vars_are_read_by_the_package(self):
        sources = sorted((REPO / "src" / "repro").rglob("*.py"))
        literals = set()
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    literals.add(node.value)
        texts = sorted((REPO / "docs").glob("*.md")) + [
            REPO / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
        ]
        unknown = sorted(
            {
                f"{path.relative_to(REPO)}: {name}"
                for path in texts + sources
                for name in self.NAME.findall(path.read_text())
                if name not in literals
            }
        )
        assert not unknown, unknown


class TestDocCodeBlocks:
    """Every ``python`` block in the docs parses, and each name it
    imports from ``repro`` exists, so a block cannot keep showing an API
    that is gone."""

    def test_python_blocks_parse_and_imports_resolve(self):
        docs = sorted((REPO / "docs").glob("*.md"))
        problems = []
        n_blocks = 0
        for doc in docs + [REPO / "README.md", REPO / "DESIGN.md"]:
            text = doc.read_text()
            for block in re.findall(r"```python\n(.*?)```", text, re.DOTALL):
                n_blocks += 1
                try:
                    tree = ast.parse(block)
                except SyntaxError as exc:
                    problems.append(f"{doc.name}: {exc}")
                    continue
                for node in ast.walk(tree):
                    if not isinstance(node, ast.ImportFrom):
                        continue
                    if (node.module or "").split(".")[0] != "repro":
                        continue
                    try:
                        module = importlib.import_module(node.module)
                    except ImportError as exc:
                        problems.append(f"{doc.name}: {exc}")
                        continue
                    for alias in node.names:
                        name = f"{node.module}.{alias.name}"
                        if not (
                            hasattr(module, alias.name)
                            or hasattr(module, "__path__")
                            and importlib.util.find_spec(name)
                        ):
                            problems.append(f"{doc.name}: {name}")
        assert n_blocks > 0
        assert not problems, problems


class TestExperimentsDoc:
    def test_every_paper_artifact_has_a_section(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in (
            "Table 1", "Table 2", "Figure 6", "Figure 7", "Figure 8",
            "Figure 9", "Figure 10", "Figure 11", "Figure 12", "Figure 13",
            "Figure 14", "Figure 15", "Figure 16", "Figure 17", "Section 4.3",
        ):
            assert artifact in text, artifact

    def test_deviations_are_marked(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        assert "🔶" in text  # honest deviations recorded
