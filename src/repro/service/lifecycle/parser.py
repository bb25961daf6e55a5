"""Config-string grammar for the defence-policy algebra.

``parse_policy`` turns the ``ServiceConfig.rotation_policy`` string into
a policy tree and every policy renders back via ``spec()``;
``parse_policy(p.spec()).spec() == p.spec()`` holds across the whole
algebra.  The grammar (loosest operator first)::

    expr     := and_expr ('|' and_expr)*          -- rotate when any
    and_expr := unary ('&' unary)*                -- rotate when all
    unary    := '!' unary                         -- invert the vote
              | '(' expr ')'
              | 'cooldown:' INT '(' expr ')'      -- minimum lifetime
              | 'hysteresis:' INT '(' expr ')'    -- N consecutive votes
              | atom
    atom     := 'never'
              | 'fill:' FLOAT                     -- e.g. fill:0.5
              | 'age:' INT                        -- e.g. age:4000
              | 'adaptive:' FLOAT [':' INT [':' INT]]
              | 'restore:' INT ['+' (atom-or-wrapper | '(' expr ')')]

Examples: ``fill:0.5``, ``adaptive:0.8:24:32``,
``(adaptive:0.8:24:32&fill:0.5)|age:4000``,
``cooldown:200(hysteresis:2(adaptive:0.85:24:32))``,
``restore:2000+fill:0.5`` (the legacy wrap form, unchanged).

Malformed specs -- unknown kinds, wrong arity, non-numeric or empty
arguments, unbalanced parentheses, and *trailing garbage after a valid
spec* (``fill:0.5xyz``, ``fill:0.5)``, ``never:``) -- are rejected with
:class:`~repro.exceptions.ConfigError` before any policy is built.
Numbers are strict decimal literals: the lenient ``float()``/``int()``
forms (``1_000``, ``nan``, ``inf``) do not parse.
"""

from __future__ import annotations

import re

from repro.exceptions import ConfigError
from repro.service.lifecycle.combinators import AllOf, AnyOf, Cooldown, Hysteresis, Not
from repro.service.lifecycle.policies import (
    AdaptivePositiveRatePolicy,
    FillThresholdPolicy,
    NeverRotatePolicy,
    RotateOnRestorePolicy,
    RotationPolicy,
    TimeBasedRecyclingPolicy,
)

__all__ = ["parse_policy"]

#: One token: an operator/paren, or a word (kind plus ':'-joined args).
_TOKEN = re.compile(r"\s*(?:(?P<op>[&|!()+])|(?P<word>[A-Za-z0-9_.:]+))")
_INT = re.compile(r"^\d+$")
_FLOAT = re.compile(r"^(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?$")


def _tokenize(spec: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(spec):
        match = _TOKEN.match(spec, pos)
        if match is None or match.end() == match.start():
            remainder = spec[pos:].strip()
            if not remainder:  # trailing whitespace only
                break
            raise ConfigError(
                f"rotation policy spec has unparseable text {remainder!r} "
                f"(at offset {pos} of {spec!r})"
            )
        tokens.append(match.group("op") or match.group("word"))
        pos = match.end()
    return tokens


def _parse_int(text: str, what: str) -> int:
    if not _INT.match(text):
        raise ConfigError(f"rotation policy {what} must be an integer, got {text!r}")
    return int(text)


def _parse_float(text: str, what: str) -> float:
    if not _FLOAT.match(text):
        raise ConfigError(f"rotation policy {what} must be a number, got {text!r}")
    return float(text)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.tokens = _tokenize(spec)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ConfigError(f"rotation policy spec ends early: {self.spec!r}")
        self.pos += 1
        return token

    def expect(self, token: str, context: str) -> None:
        got = self.peek()
        if got != token:
            raise ConfigError(
                f"expected {token!r} {context} in rotation policy spec "
                f"{self.spec!r}, got {got!r}"
            )
        self.pos += 1

    # -- grammar -------------------------------------------------------

    def parse(self) -> RotationPolicy:
        policy = self.expr()
        if self.peek() is not None:
            raise ConfigError(
                f"trailing {self.peek()!r} after a complete rotation policy "
                f"spec {self.spec!r}"
            )
        return policy

    def expr(self) -> RotationPolicy:
        branches = [self.and_expr()]
        while self.peek() == "|":
            self.take()
            branches.append(self.and_expr())
        return branches[0] if len(branches) == 1 else AnyOf(branches)

    def and_expr(self) -> RotationPolicy:
        branches = [self.unary()]
        while self.peek() == "&":
            self.take()
            branches.append(self.unary())
        return branches[0] if len(branches) == 1 else AllOf(branches)

    def unary(self) -> RotationPolicy:
        token = self.peek()
        if token == "!":
            self.take()
            return Not(self.unary())
        if token == "(":
            self.take()
            inner = self.expr()
            self.expect(")", "to close the group")
            return inner
        return self.atom_or_wrapper()

    def atom_or_wrapper(self) -> RotationPolicy:
        token = self.take()
        if token in "&|!()+":
            raise ConfigError(
                f"expected a policy, got {token!r} in rotation policy spec "
                f"{self.spec!r}"
            )
        kind, sep, args = token.partition(":")
        # A bare separator ("never:", "fill:") is an empty argument, not
        # no arguments, so it fails arity/number checks like any typo.
        parts = args.split(":") if sep else []
        if kind in ("cooldown", "hysteresis"):
            if len(parts) != 1:
                raise ConfigError(
                    f"'{kind}' takes exactly one integer argument, got {token!r}"
                )
            bound = _parse_int(parts[0], "ops" if kind == "cooldown" else "hold")
            self.expect("(", f"after '{token}'")
            inner = self.expr()
            self.expect(")", f"to close '{kind}'")
            return (
                Cooldown(bound, inner) if kind == "cooldown" else Hysteresis(bound, inner)
            )
        policy = self.leaf(token, kind, parts)
        if isinstance(policy, RotateOnRestorePolicy) and self.peek() == "+":
            self.take()
            if self.peek() == "(":
                self.take()
                inner = self.expr()
                self.expect(")", "to close the wrapped policy")
            else:
                inner = self.atom_or_wrapper()
            return RotateOnRestorePolicy(policy.max_restored_age, inner=inner)
        return policy

    def leaf(self, token: str, kind: str, parts: list[str]) -> RotationPolicy:
        if kind == "never":
            if parts:
                raise ConfigError("'never' takes no arguments")
            return NeverRotatePolicy()
        if kind == "fill":
            if len(parts) != 1:
                raise ConfigError(f"'fill' needs exactly one threshold, got {token!r}")
            return FillThresholdPolicy(_parse_float(parts[0], "threshold"))
        if kind == "age":
            if len(parts) != 1:
                raise ConfigError(f"'age' needs exactly one op budget, got {token!r}")
            return TimeBasedRecyclingPolicy(_parse_int(parts[0], "age"))
        if kind == "adaptive":
            if len(parts) not in (1, 2, 3):
                raise ConfigError(
                    f"'adaptive' takes <rate>[:<min_queries>[:<window>]], got {token!r}"
                )
            rate = _parse_float(parts[0], "rate")
            if len(parts) == 3:
                return AdaptivePositiveRatePolicy(
                    rate,
                    _parse_int(parts[1], "min_queries"),
                    window=_parse_int(parts[2], "window"),
                )
            if len(parts) == 2:
                return AdaptivePositiveRatePolicy(rate, _parse_int(parts[1], "min_queries"))
            return AdaptivePositiveRatePolicy(rate)
        if kind == "restore":
            if len(parts) != 1:
                raise ConfigError(f"'restore' needs exactly one age, got {token!r}")
            return RotateOnRestorePolicy(_parse_int(parts[0], "age"))
        raise ConfigError(
            f"unknown rotation policy kind {kind!r}; known: never, fill, age, "
            "adaptive, restore, cooldown, hysteresis"
        )


def parse_policy(spec: str) -> RotationPolicy:
    """Build a policy tree from its config string (see module docstring
    for the grammar).  Raises :class:`~repro.exceptions.ConfigError` on
    malformed specs -- including trailing garbage after a valid prefix
    -- and :class:`~repro.exceptions.ParameterError` when a
    syntactically valid spec carries an out-of-domain value."""
    if not isinstance(spec, str) or not spec.strip():
        raise ConfigError(
            f"rotation policy spec must be a non-empty string, got {spec!r}"
        )
    return _Parser(spec.strip()).parse()
