"""Minimal C++ lexer for the deeplint token frontend.

Produces a stream of (kind, text, line) tokens with comments, string
literals, character literals, and preprocessor directives stripped (but
line numbers preserved), which is exactly the level the token frontend
needs: real token boundaries so multi-line declarations, comments inside
expressions, and string contents can never confuse a pass the way they
confuse line-regex lint.  This is not a preprocessor: macros are seen as
ordinary identifiers, which is what we want — GUARDED_BY/REQUIRES/ACQUIRE
are macros and the passes match them by name.
"""

from __future__ import annotations

from dataclasses import dataclass

IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
IDENT_CONT = IDENT_START | frozenset("0123456789")
DIGITS = frozenset("0123456789")

# Longest-match punctuation. Three-char first, then two, then one.
PUNCT3 = ("<<=", ">>=", "...", "->*")
PUNCT2 = ("::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
          "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "number" | "punct"
    text: str
    line: int


def tokenize(source: str):
    """Yield Tokens for `source`, skipping comments/strings/preprocessor."""
    toks = []
    i, n, line = 0, len(source), 1
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Preprocessor directive: skip to end of (continued) line.
        if c == "#" and (not toks or toks[-1].line != line):
            while i < n:
                if source[i] == "\\" and i + 1 < n and source[i + 1] == "\n":
                    line += 1
                    i += 2
                    continue
                if source[i] == "\n":
                    break
                i += 1
            continue
        if c == "/" and i + 1 < n:
            if source[i + 1] == "/":  # line comment
                j = source.find("\n", i)
                i = n if j < 0 else j
                continue
            if source[i + 1] == "*":  # block comment
                j = source.find("*/", i + 2)
                if j < 0:
                    break
                line += source.count("\n", i, j + 2)
                i = j + 2
                continue
        if c == '"':
            # Raw string literal?  R"delim( ... )delim"
            if toks and toks[-1].kind == "ident" and \
                    toks[-1].text.endswith("R") and \
                    toks[-1].text in ("R", "LR", "uR", "UR", "u8R"):
                j = source.find("(", i)
                delim = source[i + 1:j]
                close = ")" + delim + '"'
                k = source.find(close, j)
                if k < 0:
                    break
                line += source.count("\n", i, k + len(close))
                i = k + len(close)
                toks.pop()  # the R prefix is part of the literal
                continue
            i, line = _skip_quoted(source, i, line, '"')
            continue
        if c == "'":
            i, line = _skip_quoted(source, i, line, "'")
            continue
        if c in IDENT_START:
            j = i + 1
            while j < n and source[j] in IDENT_CONT:
                j += 1
            toks.append(Token("ident", source[i:j], line))
            i = j
            continue
        if c in DIGITS:
            j = i + 1
            while j < n and (source[j] in IDENT_CONT or source[j] == "." or
                             (source[j] in "+-" and
                              source[j - 1] in "eEpP")):
                j += 1
            toks.append(Token("number", source[i:j], line))
            i = j
            continue
        for p in PUNCT3:
            if source.startswith(p, i):
                toks.append(Token("punct", p, line))
                i += 3
                break
        else:
            for p in PUNCT2:
                if source.startswith(p, i):
                    toks.append(Token("punct", p, line))
                    i += 2
                    break
            else:
                toks.append(Token("punct", c, line))
                i += 1
    return toks


def _skip_quoted(source, i, line, quote):
    n = len(source)
    i += 1
    while i < n:
        c = source[i]
        if c == "\\":
            if i + 1 < n and source[i + 1] == "\n":
                line += 1
            i += 2
            continue
        if c == "\n":  # unterminated; tolerate
            return i, line
        if c == quote:
            return i + 1, line
        i += 1
    return i, line
