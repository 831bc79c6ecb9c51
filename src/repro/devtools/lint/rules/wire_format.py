"""wire-format: encoder/decoder bodies are pinned to ``FORMAT_VERSION``.

A Flowtree summary written today must decode on every other site tomorrow.
The binary ``FTRE`` summary format therefore may only change together
with its version constant — a silent edit to an encode/decode body
produces payloads that older/newer peers misparse with no error at the
boundary.

Enforcement: ``wire_manifest.json`` (next to this package) pins an AST
fingerprint of every wire-relevant function in ``core/serialization.py``
together with the version constant it is covered by.  This rule recomputes
the fingerprints on every run:

* a body change while the version constant still equals the pinned value
  is an error ("bump ``FORMAT_VERSION``"),
* a version constant that differs from the manifest is an error with one
  sanctioned fix: ``python -m repro.devtools.lint --update-wire-manifest``
  (which re-pins every fingerprint at the new version),
* a pinned function that disappeared is an error.

Fingerprints are over the docstring-stripped AST dump, so comments and
documentation edits never trip the rule — only code shape does.
"""

from __future__ import annotations

import ast
import copy
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.devtools.lint.engine import FileContext, Finding, Rule, register

MANIFEST_FORMAT = "flowlint-wire-manifest"
MANIFEST_VERSION = 1

#: Functions pinned per version constant: the FTRE encoder/decoder and
#: the varint/string primitives they are built from.
PINNED_FUNCTIONS: Dict[str, tuple] = {
    "FORMAT_VERSION": (
        "to_bytes",
        "summary_header",
        "from_bytes",
        "encode_varint",
        "decode_varint",
        "encode_zigzag",
        "decode_zigzag",
        "_encode_string",
        "_decode_string",
    ),
}

_REGEN_HINT = "python -m repro.devtools.lint --update-wire-manifest"


def default_manifest_path() -> Path:
    """``wire_manifest.json`` inside the lint package."""
    return Path(__file__).resolve().parent.parent / "wire_manifest.json"


def _serialization_source_path() -> Path:
    """The real ``repro/core/serialization.py`` on disk."""
    import repro.core.serialization as serialization_module

    return Path(serialization_module.__file__).resolve()


def fingerprint(func: ast.AST) -> str:
    """Stable fingerprint of one function's code shape.

    The docstring is stripped (documentation may evolve freely) and source
    positions are excluded, so only signature + body structure count.
    """
    node = copy.deepcopy(func)
    body = getattr(node, "body", None)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        del body[0]
    dump = ast.dump(node, include_attributes=False)
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()[:16]


def _module_functions(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _module_int_constants(tree: ast.Module) -> Dict[str, tuple]:
    """Module-level ``NAME = <int literal>`` assignments -> (value, node)."""
    constants: Dict[str, tuple] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
        ):
            constants[node.targets[0].id] = (node.value.value, node)
    return constants


def build_manifest(tree: ast.Module) -> Dict[str, object]:
    """Compute the manifest document for a parsed ``serialization.py``."""
    functions = _module_functions(tree)
    constants = _module_int_constants(tree)
    groups: Dict[str, object] = {}
    for constant, names in PINNED_FUNCTIONS.items():
        if constant not in constants:
            raise ValueError(f"serialization module defines no {constant} constant")
        missing = [name for name in names if name not in functions]
        if missing:
            raise ValueError(f"pinned function(s) missing: {', '.join(missing)}")
        groups[constant] = {
            "pinned_version": constants[constant][0],
            "functions": {name: fingerprint(functions[name]) for name in sorted(names)},
        }
    return {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "groups": groups,
    }


def update_manifest(
    source_path: Optional[Path] = None, manifest_path: Optional[Path] = None
) -> Path:
    """Regenerate the manifest from the current serialization module.

    This is the *only* sanctioned way to green the wire-format rule after
    an intentional format change: bump the version constant, run
    ``--update-wire-manifest``, commit both.
    """
    source_path = source_path or _serialization_source_path()
    manifest_path = manifest_path or default_manifest_path()
    tree = ast.parse(source_path.read_text(encoding="utf-8"), filename=str(source_path))
    manifest = build_manifest(tree)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def load_manifest(manifest_path: Optional[Path] = None) -> Dict[str, object]:
    """Read and validate the manifest document."""
    manifest_path = manifest_path or default_manifest_path()
    document = json.loads(manifest_path.read_text(encoding="utf-8"))
    if document.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"not a wire manifest: {manifest_path}")
    if document.get("version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported wire manifest version {document.get('version')}")
    return document


@register
class WireFormatRule(Rule):
    name = "wire-format"
    description = (
        "encode/decode body changed without bumping its wire-format version "
        "constant (fingerprints pinned in wire_manifest.json)"
    )

    def __init__(self, manifest: Optional[Dict[str, object]] = None) -> None:
        #: Injected manifest for fixture tests; ``None`` reads the shipped file.
        self._manifest_override = manifest

    def applies_to(self, path: str) -> bool:
        return path.endswith("repro/core/serialization.py")

    def _manifest(self) -> Dict[str, object]:
        if self._manifest_override is not None:
            return self._manifest_override
        return load_manifest()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        try:
            manifest = self._manifest()
        except (OSError, ValueError) as exc:
            yield Finding(
                rule=self.name, path=ctx.path, line=1, col=1,
                message=f"wire manifest unreadable ({exc}); regenerate it with "
                        f"`{_REGEN_HINT}`",
            )
            return
        functions = _module_functions(ctx.tree)
        constants = _module_int_constants(ctx.tree)
        groups = manifest.get("groups", {})
        for constant, group in sorted(groups.items()):  # type: ignore[union-attr]
            pinned_version = group["pinned_version"]
            pinned_functions: Dict[str, str] = group["functions"]
            if constant not in constants:
                yield Finding(
                    rule=self.name, path=ctx.path, line=1, col=1,
                    message=f"version constant {constant} is gone; the wire "
                            f"format must stay explicitly versioned",
                )
                continue
            current_version, constant_node = constants[constant]
            if current_version != pinned_version:
                yield self.finding(
                    ctx,
                    constant_node,
                    f"{constant} is {current_version} but the manifest pins "
                    f"{pinned_version}; if the bump is intentional, re-pin the "
                    f"fingerprints with `{_REGEN_HINT}` and commit the manifest",
                )
                continue  # fingerprints are judged against the new pin after regen
            for name, pinned_fp in sorted(pinned_functions.items()):
                func = functions.get(name)
                if func is None:
                    yield Finding(
                        rule=self.name, path=ctx.path, line=1, col=1,
                        message=f"pinned wire function {name}() disappeared; "
                                f"removing or renaming it changes the {constant} "
                                f"format — bump {constant} and run `{_REGEN_HINT}`",
                    )
                    continue
                if fingerprint(func) != pinned_fp:
                    yield self.finding(
                        ctx,
                        func,
                        f"body of {name}() changed but {constant} is still "
                        f"{pinned_version}; peers decoding by version will "
                        f"misparse — bump {constant} and run `{_REGEN_HINT}`",
                    )
