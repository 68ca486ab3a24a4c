"""Mirror-coverage parity analyzer: ``python -m tools.flarelint.parity``.

The repo's core correctness contract is that the object path, the
:class:`~repro.sim.kernel.TtiKernel` SoA fast path, the numpy vector
lane and sharded metro execution produce **byte-identical** serialized
``CellReport``\\ s.  The most dangerous way to break it silently is to
add or mutate hot state on a scalar object (a ``Flow``, ``FluidTcp``,
PF scheduler, RB trace, player or buffer) and forget the kernel
mirror: differential tests only catch that when a lucky seed makes the
unmirrored attribute observable.

This analyzer closes that gap statically:

1. **Scalar side** — for every class in the object-path modules
   (:data:`SCALAR_MODULES`), extract the instance attributes mutated
   *after construction* (:mod:`tools.flarelint.dataflow`).

2. **Kernel side** — inside ``TtiKernel``, extract every attribute
   name that has both a *gather* site (a load from a non-``self``
   receiver: ``self._cwnd[i] = tcp._cwnd``) and a *flush* site (a
   store: ``tcp._cwnd = cwnd[i]``).  Such names are maintained
   mirrors; matching is by attribute name, which is the kernel's own
   mirroring convention.

3. **Policy** — every mutated scalar attribute must be mirrored, or
   listed in the ``KERNEL_UNMIRRORED`` allowlist in ``sim/kernel.py``
   with a reason string.  The allowlist is checked both ways: an
   unexplained unmirrored attribute is finding **FL100**, a stale
   entry (no longer mutated, or now actually mirrored) is **FL101**,
   and a missing/non-literal allowlist is **FL102**.

The analyzer never imports the simulator — everything is stdlib
``ast`` — so it runs identically in CI and against fixture trees
(see ``tools/flarelint/fixtures/parity/``).  ``--report`` writes a
JSON mirror-coverage report suitable for a CI artifact.
"""

from __future__ import annotations

import argparse
import ast
import json
import pathlib
import sys
from dataclasses import dataclass
from collections.abc import Sequence

from tools.flarelint.dataflow import (
    ClassMutations,
    KernelAccesses,
    collect_class_mutations,
    collect_kernel_accesses,
    parse_literal_str_dict,
)
from tools.flarelint.rules import Finding, render_github

#: Object-path modules whose classes hold hot per-flow/per-cell state,
#: relative to the source root.  ``tti_reference.py`` and the other
#: non-PrioritySet schedulers are deliberately absent: the kernel
#: refuses to build for them (``TtiKernel._rebuild`` type-checks the
#: scheduler), so their state pins the cell to the object path and
#: cannot diverge.
SCALAR_MODULES = (
    "repro/sim/cell.py",
    "repro/mac/scheduler.py",
    "repro/mac/priority_set.py",
    "repro/mac/gbr.py",
    "repro/mac/rb_trace.py",
    "repro/net/tcp.py",
    "repro/net/flows.py",
    "repro/has/player.py",
    "repro/has/buffer.py",
)

#: The kernel module (relative to the source root) and the classes
#: whose bodies constitute the mirror surface.
KERNEL_MODULE = "repro/sim/kernel.py"
KERNEL_CLASSES = ("TtiKernel",)

#: Name of the checked allowlist literal inside the kernel module.
ALLOWLIST_NAME = "KERNEL_UNMIRRORED"


@dataclass(frozen=True)
class MutatedAttr:
    """One scalar-side mutated attribute."""

    module: str
    cls: str
    attr: str
    line: int

    @property
    def key(self) -> str:
        return f"{self.cls}.{self.attr}"


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"),
                     filename=str(path))


def collect_scalar_mutations(
        source_root: pathlib.Path,
        modules: Sequence[str]) -> list[MutatedAttr]:
    """All post-construction attribute mutations in the scalar path."""
    mutated: list[MutatedAttr] = []
    for module in modules:
        tree = _parse(source_root / module)
        per_class: dict[str, ClassMutations] = collect_class_mutations(tree)
        for cls_name, mutations in sorted(per_class.items()):
            for attr, events in sorted(mutations.events.items()):
                mutated.append(MutatedAttr(
                    module, cls_name, attr,
                    min(e.line for e in events)))
    return mutated


def analyze(source_root: pathlib.Path,
            scalar_modules: Sequence[str] = SCALAR_MODULES,
            kernel_module: str = KERNEL_MODULE,
            kernel_classes: Sequence[str] = KERNEL_CLASSES,
            ) -> tuple[list[Finding], dict]:
    """Run the parity analysis -> (findings, coverage report dict)."""
    kernel_path = source_root / kernel_module
    kernel_tree = _parse(kernel_path)
    kernel: KernelAccesses = collect_kernel_accesses(
        kernel_tree, kernel_classes)
    mirrored = kernel.mirrored()

    findings: list[Finding] = []
    try:
        allowlist = parse_literal_str_dict(kernel_tree, ALLOWLIST_NAME)
    except ValueError as exc:
        allowlist = {}
        findings.append(Finding(
            str(kernel_path), 1, 0, "FL102", str(exc)))
    if allowlist is None:
        allowlist = {}
        findings.append(Finding(
            str(kernel_path), 1, 0, "FL102",
            f"kernel module defines no literal {ALLOWLIST_NAME} dict; "
            f"the mirror-coverage allowlist is required",
        ))

    mutated = collect_scalar_mutations(source_root, scalar_modules)
    mutated_keys = {m.key for m in mutated}

    unexplained: list[MutatedAttr] = []
    allowlisted: list[MutatedAttr] = []
    covered: list[MutatedAttr] = []
    for m in mutated:
        if m.attr in mirrored:
            covered.append(m)
            if m.key in allowlist:
                findings.append(Finding(
                    str(source_root / kernel_module), 1, 0, "FL101",
                    f"stale {ALLOWLIST_NAME} entry '{m.key}': the "
                    f"attribute is now a maintained kernel mirror "
                    f"(gather+flush); remove the entry",
                ))
        elif m.key in allowlist:
            allowlisted.append(m)
        else:
            unexplained.append(m)
            findings.append(Finding(
                str(source_root / m.module), m.line, 0, "FL100",
                f"{m.key} is mutated by the scalar object path but has "
                f"no TtiKernel mirror (gather+flush) and no "
                f"{ALLOWLIST_NAME} entry; mirror it or allowlist it "
                f"with a reason",
            ))

    for key in sorted(allowlist):
        if key not in mutated_keys:
            findings.append(Finding(
                str(source_root / kernel_module), 1, 0, "FL101",
                f"stale {ALLOWLIST_NAME} entry '{key}': no scalar "
                f"module mutates this attribute any more; remove the "
                f"entry",
            ))

    report = {
        "source_root": str(source_root),
        "kernel_module": kernel_module,
        "scalar_modules": list(scalar_modules),
        "mirrored_attrs": {
            attr: {
                "gather_scopes": kernel.scopes_for(attr)[0],
                "flush_scopes": kernel.scopes_for(attr)[1],
            }
            for attr in sorted(mirrored)
        },
        "covered": sorted(m.key for m in covered),
        "allowlisted": {m.key: allowlist[m.key]
                        for m in sorted(allowlisted,
                                        key=lambda m: m.key)},
        "unexplained": sorted(m.key for m in unexplained),
        "counts": {
            "mutated_attrs": len(mutated),
            "covered": len(covered),
            "allowlisted": len(allowlisted),
            "unexplained": len(unexplained),
            "kernel_mirrors": len(mirrored),
            "findings": len(findings),
        },
    }
    return sorted(findings), report


def main(argv: list[str] | None = None) -> int:
    """CLI driver; exit 0 clean / 1 findings / 2 parse failure."""
    parser = argparse.ArgumentParser(
        prog="flarelint-parity",
        description="Statically prove every scalar object-path "
                    "mutation is kernel-mirrored or allowlisted.",
    )
    parser.add_argument("--source-root", type=pathlib.Path,
                        default=pathlib.Path("src"),
                        help="root the module paths are relative to "
                             "(default: src)")
    parser.add_argument("--scalar", nargs="*", default=None,
                        metavar="MODULE",
                        help="override the scalar module list "
                             "(relative to --source-root)")
    parser.add_argument("--kernel", default=KERNEL_MODULE,
                        metavar="MODULE",
                        help="override the kernel module path")
    parser.add_argument("--kernel-class", nargs="*",
                        default=list(KERNEL_CLASSES), metavar="CLASS",
                        help="kernel class(es) forming the mirror "
                             "surface")
    parser.add_argument("--report", type=pathlib.Path, default=None,
                        metavar="FILE",
                        help="write the JSON mirror-coverage report "
                             "here")
    parser.add_argument("--format", choices=("text", "github"),
                        default="text", dest="fmt",
                        help="finding output format")
    args = parser.parse_args(argv)

    scalar = tuple(args.scalar) if args.scalar else SCALAR_MODULES
    for module in (*scalar, args.kernel):
        if not (args.source_root / module).is_file():
            print(f"parity: no such module: "
                  f"{args.source_root / module}", file=sys.stderr)
            return 2
    try:
        findings, report = analyze(args.source_root, scalar,
                                   args.kernel,
                                   tuple(args.kernel_class))
    except SyntaxError as exc:
        print(f"parity: parse error: {exc}", file=sys.stderr)
        return 2

    for finding in findings:
        print(render_github(finding) if args.fmt == "github"
              else finding.render())
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    counts = report["counts"]
    print(f"parity: {counts['mutated_attrs']} mutated attrs — "
          f"{counts['covered']} mirrored, "
          f"{counts['allowlisted']} allowlisted, "
          f"{counts['unexplained']} unexplained; "
          f"{len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
