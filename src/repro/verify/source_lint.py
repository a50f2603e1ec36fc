"""Repo-specific source lint (the second half of ``repro.verify``).

A small ``ast``-based linter with rules that generic tools do not know
about because they encode *this* codebase's safety conventions:

* **R1 no-private-state** — outside ``crypto/`` no code may reach into
  another object's underscore-prefixed attributes or forge a cipher-state
  object (``PaillierCiphertext``) directly: a ciphertext is made only by
  encrypting, and the only sanctioned read is ``decrypt`` with the
  matching key.
* **R2 no-unseeded-rng** — inside ``privacy/``, ``mpc/``, and
  ``runtime/`` every random draw must come from an explicitly threaded
  ``random.Random`` instance: no module-level ``random.random()``-style
  calls and no zero-argument ``random.Random()`` constructions. DP noise,
  MPC shares, and protocol decisions drawn from an ambient, unseedable
  stream are untestable, unauditable, and unreplayable — the
  fault-recovery runtime depends on every run being exactly replayable.
* **R3 no-float-on-secret** — in the MPC/secret-sharing modules, values
  annotated as ``SecretValue``/``Share`` are field elements; true
  division or mixing with float literals silently leaves the field.
  (Floor division — exact field arithmetic — is fine.)
* **R4 no-unused-imports** — a pyflakes-subset check so ``make lint``
  has teeth even when ruff is not installed. ``__init__.py`` re-export
  hubs and ``from __future__`` imports are exempt.
* **R5 rng-stream-hygiene** — a *cross-function, cross-file* dataflow
  rule: every statically-known label passed to the seed-derivation
  surface (``derive_stream_seed`` and the ``fresh``/``_fresh`` stream
  accessors) must be unique per call site. Two call
  sites sharing a label template silently draw *correlated* randomness
  — DP noise reusing MPC share material, replayed phases consuming each
  other's streams — which breaks both privacy and the bit-identical
  replay guarantee. F-string labels are compared as templates (the
  interpolated holes are wildcards); fully dynamic labels are skipped.
* **R6 no-numpy-default-rng** — inside ``runtime/``, ``mpc/``, and
  ``crypto/`` no code may draw from numpy's ambient global stream
  (``np.random.<fn>``) or construct an unseeded generator
  (``default_rng()`` with no arguments). Same rationale as R2, for the
  vectorized data plane: unseeded draws are unreplayable.
* **R7 no-raw-modexp** — inside ``crypto/``, ``mpc/``, and ``runtime/``
  every bigint modular exponentiation (3-argument ``pow``, and direct
  ``gmpy2`` imports) must go through the pluggable kernel dispatch in
  ``crypto/backend.py``. A raw ``pow(..., n_squared)`` bypasses backend
  selection, so the accelerated path silently stops covering that call
  site *and* the differential-equivalence suite stops testing it.

All rules report through the shared :class:`VerificationReport` shape,
with ``file:line`` subjects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .report import VerificationReport, Violation

#: Cipher-state classes whose direct construction outside crypto/ would
#: bypass encryption (forging a ciphertext around chosen "plaintext").
_CIPHER_STATE_CLASSES = frozenset({"PaillierCiphertext"})

#: ``random``-module samplers that draw from the ambient global stream.
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "getrandbits",
        "seed",
    }
)

#: ``numpy.random`` names that construct *seedable* generator machinery
#: rather than drawing from the module-level global stream (R6).
_NUMPY_SEEDED_CONSTRUCTORS = frozenset(
    {"Generator", "SeedSequence", "PCG64", "Philox", "MT19937", "SFC64"}
)

#: Annotations marking secret-tainted field elements (R3).
_SECRET_ANNOTATIONS = ("SecretValue", "Share")

#: Files (beyond ``mpc/``) whose arithmetic is field arithmetic.
_FIELD_ARITHMETIC_FILES = frozenset({"field.py", "shamir.py", "vsr.py"})


@dataclass(frozen=True)
class LintRule:
    rule: str
    scope: str
    description: str


LINT_RULES: Tuple[LintRule, ...] = (
    LintRule(
        "no-private-state",
        "src outside crypto/",
        "no underscore-attribute access on foreign objects, no direct "
        "construction of cipher-state classes",
    ),
    LintRule(
        "no-unseeded-rng",
        "privacy/, mpc/, runtime/",
        "no global-stream random.* calls, no zero-argument random.Random()",
    ),
    LintRule(
        "no-float-on-secret",
        "mpc/, crypto field arithmetic",
        "no true division or float mixing on SecretValue/Share operands",
    ),
    LintRule(
        "no-unused-imports",
        "all of src",
        "every module-level import is used (init re-export hubs exempt)",
    ),
    LintRule(
        "rng-stream-hygiene",
        "runtime/, mpc/, crypto/, faults/",
        "every derive_stream_seed / fresh / _fresh label template is "
        "unique per call site (no correlated substreams)",
    ),
    LintRule(
        "no-numpy-default-rng",
        "runtime/, mpc/, crypto/",
        "no numpy.random global-stream calls, no unseeded default_rng()",
    ),
    LintRule(
        "no-raw-modexp",
        "runtime/, mpc/, crypto/ (except crypto/backend.py)",
        "no 3-argument pow() or direct gmpy2 use outside the crypto "
        "backend dispatch layer",
    ),
)

#: Functions whose string argument names a derived random substream. Maps
#: callable name -> index of the label argument (R5).
_STREAM_SEED_FUNCS = {
    "derive_stream_seed": 1,
    "fresh": 0,
    "_fresh": 0,
}


def _annotation_names(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # String annotations ("Share", "Optional[SecretValue]").
            names.update(
                part
                for marker in _SECRET_ANNOTATIONS
                for part in ([marker] if marker in sub.value else [])
            )
    return names


def _is_secret_annotation(node: ast.AST) -> bool:
    if node is None:
        return False
    return any(m in _annotation_names(node) for m in _SECRET_ANNOTATIONS)


def _label_template(expr: ast.AST):
    """The static template of a stream-label expression, or ``None``.

    String constants are themselves; f-strings become templates with
    ``{}`` holes (``f"noise/em{seq}/{start}"`` -> ``"noise/em{}/{}"``),
    so two call sites differing only in interpolated values still
    compare equal — which is exactly the collision R5 hunts. Anything
    else (a variable, a ``+`` concat) is dynamic and skipped.
    """
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr):
        parts = []
        for piece in expr.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                parts.append(piece.value)
            elif isinstance(piece, ast.FormattedValue):
                parts.append("{}")
            else:
                return None
        return "".join(parts)
    return None


class _FileLinter(ast.NodeVisitor):
    """Runs every applicable rule over one parsed module."""

    def __init__(self, path: Path, rel: str, tree: ast.Module, source: str = ""):
        self.path = path
        self.rel = rel
        self.tree = tree
        self.lines = source.splitlines()
        parts = path.parts
        self.in_crypto = "crypto" in parts
        self.in_rng_scope = (
            "privacy" in parts or "mpc" in parts or "runtime" in parts
        )
        self.in_field_scope = "mpc" in parts or (
            self.in_crypto and path.name in _FIELD_ARITHMETIC_FILES
        )
        self.in_np_scope = (
            "runtime" in parts or "mpc" in parts or self.in_crypto
        )
        #: The one module allowed to write raw bigint modexp (R7).
        self.is_backend_module = self.in_crypto and path.name == "backend.py"
        self.in_stream_scope = self.in_np_scope or "faults" in parts
        self.is_init = path.name == "__init__.py"
        self.class_names = {
            n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
        }
        self._normalized_classes = {
            name.replace("_", "").lower() for name in self.class_names
        }
        self.violations: List[Violation] = []
        #: Names bound to secret-annotated values in the current function.
        self._secret_stack: List[Set[str]] = []
        #: Aliases ``import numpy [as X]`` binds in this module (R6).
        self.numpy_aliases: Set[str] = set()
        #: Aliases bound to the ``numpy.random`` submodule itself (R6).
        self.numpy_random_aliases: Set[str] = set()
        #: ``(template, site)`` for every statically-labelled stream-seed
        #: call; the cross-file uniqueness post-pass lives in
        #: :meth:`SourceLinter.lint_paths` (R5).
        self.stream_labels: List[Tuple[str, str]] = []
        #: Names ``from numpy.random import default_rng [as X]`` binds (R6).
        self.default_rng_aliases: Set[str] = set()

    def _allowed(self, rule: str, line: int) -> bool:
        # Escape hatch for deliberate violations (Byzantine test
        # hooks, adversarial fixtures): ``# verify: allow(<rule>)``.
        if 0 < line <= len(self.lines):
            return f"verify: allow({rule})" in self.lines[line - 1]
        return False

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if self._allowed(rule, line):
            return
        self.violations.append(Violation(rule, f"{self.rel}:{line}", message))

    def run(self) -> List[Violation]:
        self.visit(self.tree)
        if not self.is_init:
            self._check_unused_imports()
        return self.violations

    # ------------------------------------------------------ R1 private state

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = node.attr
        if (
            not self.in_crypto
            and attr.startswith("_")
            and not attr.startswith("__")
        ):
            receiver = node.value
            # self/cls, the enclosing class itself, and instances named
            # after a class in this file (e.g. ``parser`` of ``_Parser``)
            # are that class's own state, not a foreign object's.
            allowed = isinstance(receiver, ast.Name) and (
                receiver.id in ("self", "cls")
                or receiver.id in self.class_names
                or receiver.id.replace("_", "").lower() in self._normalized_classes
            )
            if not allowed:
                where = (
                    receiver.id
                    if isinstance(receiver, ast.Name)
                    else type(receiver).__name__
                )
                self._flag(
                    "no-private-state",
                    node,
                    f"access to private attribute {attr!r} of {where!r}; "
                    "internal state (cipher slots, engine internals) may "
                    "only be touched by its own class or inside crypto/",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # R1: forging cipher state.
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if (
            not self.in_crypto
            and name in _CIPHER_STATE_CLASSES
        ):
            self._flag(
                "no-private-state",
                node,
                f"direct construction of {name} outside crypto/ forges "
                "cipher state; use the scheme's encrypt()",
            )
        # R2: global-stream RNG.
        if self.in_rng_scope and isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                if func.attr == "Random" and not node.args and not node.keywords:
                    self._flag(
                        "no-unseeded-rng",
                        node,
                        "random.Random() without a seed: privacy/MPC "
                        "randomness must be threaded through an explicit, "
                        "caller-provided random.Random",
                    )
                elif func.attr in _GLOBAL_RNG_FUNCS:
                    self._flag(
                        "no-unseeded-rng",
                        node,
                        f"random.{func.attr}() draws from the ambient global "
                        "stream; pass a random.Random instance instead",
                    )
        # R5: collect statically-labelled stream-seed call sites; the
        # cross-file uniqueness check runs in SourceLinter.lint_paths.
        if self.in_stream_scope and name in _STREAM_SEED_FUNCS:
            idx = _STREAM_SEED_FUNCS[name]
            label_expr = None
            for kw in node.keywords:
                if kw.arg == "label":
                    label_expr = kw.value
            if label_expr is None and len(node.args) > idx:
                label_expr = node.args[idx]
            if label_expr is not None:
                template = _label_template(label_expr)
                line = getattr(node, "lineno", 0)
                if template is not None and not self._allowed(
                    "rng-stream-hygiene", line
                ):
                    self.stream_labels.append((template, f"{self.rel}:{line}"))
        # R6: numpy's ambient global stream / unseeded generators.
        if self.in_np_scope:
            if isinstance(func, ast.Attribute):
                base = func.value
                is_np_random = (
                    isinstance(base, ast.Attribute)
                    and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in self.numpy_aliases
                ) or (
                    isinstance(base, ast.Name)
                    and base.id in self.numpy_random_aliases
                )
                if is_np_random:
                    if func.attr in ("default_rng", "RandomState"):
                        if not node.args and not node.keywords:
                            self._flag(
                                "no-numpy-default-rng",
                                node,
                                f"{func.attr}() without a seed is "
                                "unreplayable; derive the seed from the "
                                "run's master seed (derive_stream_seed)",
                            )
                    elif func.attr not in _NUMPY_SEEDED_CONSTRUCTORS:
                        self._flag(
                            "no-numpy-default-rng",
                            node,
                            f"numpy.random.{func.attr}() draws from numpy's "
                            "ambient global stream; use a seeded Generator "
                            "instead",
                        )
            elif (
                isinstance(func, ast.Name)
                and func.id in self.default_rng_aliases
                and not node.args
                and not node.keywords
            ):
                self._flag(
                    "no-numpy-default-rng",
                    node,
                    "default_rng() without a seed is unreplayable; derive "
                    "the seed from the run's master seed",
                )
        # R7: raw bigint modexp outside the backend dispatch layer.
        if (
            self.in_np_scope
            and not self.is_backend_module
            and isinstance(func, ast.Name)
            and func.id == "pow"
            and len(node.args) == 3
        ):
            self._flag(
                "no-raw-modexp",
                node,
                "3-argument pow() bypasses the pluggable crypto backend; "
                "route this modexp through crypto/backend.py "
                "(get_backend().powmod / invmod / powmod_base_batch)",
            )
        # R3: float() coercion of a secret.
        if (
            self._secret_stack
            and isinstance(func, ast.Name)
            and func.id == "float"
        ):
            for arg in node.args:
                for leaf in ast.walk(arg):
                    if (
                        isinstance(leaf, ast.Name)
                        and leaf.id in self._secret_stack[-1]
                    ):
                        self._flag(
                            "no-float-on-secret",
                            node,
                            f"float({leaf.id}) coerces a secret field "
                            "element out of the field",
                        )
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if (
                self.in_np_scope
                and not self.is_backend_module
                and alias.name.split(".")[0] == "gmpy2"
            ):
                self._flag(
                    "no-raw-modexp",
                    node,
                    "direct gmpy2 import bypasses the pluggable crypto "
                    "backend; only crypto/backend.py may bind gmpy2",
                )
            if alias.name == "numpy":
                self.numpy_aliases.add(alias.asname or "numpy")
            elif alias.name == "numpy.random":
                if alias.asname:
                    self.numpy_random_aliases.add(alias.asname)
                else:
                    # ``import numpy.random`` binds the top-level ``numpy``.
                    self.numpy_aliases.add("numpy")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if (
            self.in_np_scope
            and not self.is_backend_module
            and node.module
            and node.module.split(".")[0] == "gmpy2"
        ):
            self._flag(
                "no-raw-modexp",
                node,
                "direct gmpy2 import bypasses the pluggable crypto "
                "backend; only crypto/backend.py may bind gmpy2",
            )
        if self.in_rng_scope and node.module == "random":
            for alias in node.names:
                if alias.name in _GLOBAL_RNG_FUNCS:
                    self._flag(
                        "no-unseeded-rng",
                        node,
                        f"importing random.{alias.name} binds the ambient "
                        "global stream; thread a random.Random instead",
                    )
        if node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.numpy_random_aliases.add(alias.asname or "random")
        elif node.module == "numpy.random":
            for alias in node.names:
                binding = alias.asname or alias.name
                if alias.name == "default_rng":
                    self.default_rng_aliases.add(binding)
                elif (
                    self.in_np_scope
                    and alias.name not in _NUMPY_SEEDED_CONSTRUCTORS
                ):
                    self._flag(
                        "no-numpy-default-rng",
                        node,
                        f"importing numpy.random.{alias.name} binds numpy's "
                        "ambient global stream; use a seeded Generator",
                    )
        self.generic_visit(node)

    # -------------------------------------------------- R3 float-on-secret

    def _visit_function(self, node) -> None:
        secrets: Set[str] = set()
        if self.in_field_scope:
            args = list(node.args.posonlyargs) + list(node.args.args) + list(
                node.args.kwonlyargs
            )
            for arg in args:
                if _is_secret_annotation(arg.annotation):
                    secrets.add(arg.arg)
        self._secret_stack.append(secrets)
        self.generic_visit(node)
        self._secret_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self._secret_stack and self._secret_stack[-1]:
            secrets = self._secret_stack[-1]

            def touches_secret(expr: ast.AST) -> str:
                for leaf in ast.walk(expr):
                    if isinstance(leaf, ast.Name) and leaf.id in secrets:
                        return leaf.id
                return ""

            secret_name = touches_secret(node.left) or touches_secret(node.right)
            if secret_name:
                if isinstance(node.op, ast.Div):
                    self._flag(
                        "no-float-on-secret",
                        node,
                        f"true division on secret operand {secret_name!r}; "
                        "field elements need modular inverse or floor "
                        "division",
                    )
                else:
                    for side in (node.left, node.right):
                        if isinstance(side, ast.Constant) and isinstance(
                            side.value, float
                        ):
                            self._flag(
                                "no-float-on-secret",
                                node,
                                f"float literal {side.value!r} mixed into "
                                f"arithmetic on secret {secret_name!r}",
                            )
        self.generic_visit(node)

    # --------------------------------------------------- R4 unused imports

    def _check_unused_imports(self) -> None:
        imported = []  # (binding name, display name, node)
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    binding = alias.asname or alias.name.split(".")[0]
                    imported.append((binding, alias.name, node))
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    binding = alias.asname or alias.name
                    imported.append((binding, alias.name, node))
        if not imported:
            return
        used: Set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # Covers __all__ entries and string-form annotations.
                used.add(node.value)
        for binding, display, node in imported:
            if binding not in used:
                self._flag(
                    "no-unused-imports",
                    node,
                    f"{display!r} is imported but never used",
                )


class SourceLinter:
    """Lints a set of files or directory trees."""

    def __init__(self, root: Path = None):
        self.root = Path(root) if root else Path.cwd()

    def _files(self, paths: Sequence) -> Iterable[Path]:
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                yield from sorted(path.rglob("*.py"))
            elif path.suffix == ".py":
                yield path

    def _lint_file(self, path: Path) -> Tuple[List[Violation], List[Tuple[str, str]]]:
        """One file's violations plus its stream-label sites (for R5)."""
        path = Path(path)
        try:
            rel = str(path.relative_to(self.root))
        except ValueError:
            rel = str(path)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return (
                [
                    Violation(
                        "syntax",
                        f"{rel}:{exc.lineno or 0}",
                        f"unparsable: {exc.msg}",
                    )
                ],
                [],
            )
        linter = _FileLinter(path, rel, tree, source)
        violations = linter.run()
        return violations, linter.stream_labels

    def lint_paths(self, paths: Sequence) -> VerificationReport:
        report = VerificationReport(
            target=", ".join(str(p) for p in paths),
            checked_rules=[rule.rule for rule in LINT_RULES],
        )
        for raw in paths:
            if not Path(raw).exists():
                # A typo'd path silently "passing" would defeat the lint.
                report.add("no-such-path", str(raw), "path does not exist")
        stream_sites: List[Tuple[str, str]] = []
        for path in self._files(paths):
            violations, labels = self._lint_file(path)
            report.violations.extend(violations)
            stream_sites.extend(labels)
        # R5 post-pass: stream-label uniqueness is a *global* property —
        # a label reused in a different module is just as correlated as
        # one reused next door, so the check must run across every file
        # in the lint set, after all of them have been visited.
        by_template: Dict[str, List[str]] = {}
        for template, site in stream_sites:
            by_template.setdefault(template, []).append(site)
        for template, sites in sorted(by_template.items()):
            distinct = sorted(set(sites))
            if len(distinct) > 1:
                for site in distinct:
                    others = ", ".join(s for s in distinct if s != site)
                    report.violations.append(
                        Violation(
                            "rng-stream-hygiene",
                            site,
                            f"stream label template {template!r} is also "
                            f"derived at {others}; each call site must use "
                            "a unique label or the substreams are "
                            "correlated",
                        )
                    )
        return report


def lint_paths(paths: Sequence, root: Path = None) -> VerificationReport:
    """Lint files/directories; the module-level convenience entry point."""
    return SourceLinter(root).lint_paths(paths)
