"""reprolint — domain-invariant static analysis for this reproduction.

Run it from the CLI::

    repro lint src benchmarks
    repro lint src --format json
    repro lint src --format sarif > lint.sarif
    repro lint src --rules RL001,RL014
    repro lint --list-rules

or programmatically::

    from repro.tools.lint import lint_paths

    report = lint_paths(["src"])
    for finding in report.findings:
        print(finding.render())

The analyzer is two-pass.  Pass 1 derives each file once — one parse,
one node list, one import map, one comment scan, held by its
:class:`ModuleContext` — runs the per-module rules (RL001–RL011, RL015,
RL016) over it and distills its :class:`ModuleSummary`.  Pass 2 runs the
project-wide rules (RL012–RL014) over the assembled
:class:`ProjectContext`.  Nothing is cached between runs.

Suppress a finding in place with a trailing comment, naming the rule
(on any physical line the flagged statement spans)::

    except BaseException as exc:  # reprolint: disable=RL006

Register a function with the kernel-hot registry (RL011/RL015)::

    def sample_once(self) -> float:  # reprolint: hot
"""

from repro.tools.lint.engine import (
    Finding,
    LintReport,
    ModuleContext,
    Rule,
    display_path_for,
    iter_python_files,
    lint_file,
)
from repro.tools.lint.project import (
    ModuleSummary,
    ProjectContext,
    ProjectRule,
    lint_paths,
    summarize_module,
)
from repro.tools.lint.project_rules import ALL_PROJECT_RULES, default_project_rules
from repro.tools.lint.rules import (
    ALL_RULES,
    RULES_BY_ID,
    default_rules,
    registry,
    rules_for_ids,
)

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "Finding",
    "LintReport",
    "ModuleContext",
    "ModuleSummary",
    "ProjectContext",
    "ProjectRule",
    "RULES_BY_ID",
    "Rule",
    "default_project_rules",
    "default_rules",
    "display_path_for",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "registry",
    "rules_for_ids",
    "summarize_module",
]
