"""The token-loop ``parse_cotree`` against the character-loop parser it
replaced, kept here verbatim as the reference: the same ``Cotree`` for every
string, or the same ``CotreeParseError`` message and byte offset.  Its
``str.split`` tokenizer against ``_TOKEN.findall``, whose token indices the
error offsets are counted in."""

import random
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cosec.cotree import (
    _OUTSIDE,
    _TOKEN,
    JOIN,
    LEAF,
    UNION,
    Cotree,
    _tokenize,
    parse_cotree,
    to_text,
)
from cosec.errors import CotreeParseError
from cosec.generators import RandomSpec, random_cotree

from helpers import cosec_subprocess_env

_KIND_OF_OP = {"U": UNION, "J": JOIN}
_LEAF_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
)
_WS = frozenset(" \t\r\n")


def reference_parse_cotree(text: str) -> Cotree:
    """Parse a cotree expression; see the module docstring for the grammar.

    The tree is returned exactly as written, without normalization.
    Errors report byte offsets into the UTF-8 encoding of ``text``.
    """
    pos = 0
    end = len(text)
    kinds: list[str] = []
    children: list[list[int] | tuple[()]] = []
    labels: list[str | None] = []
    stack: list[int] = []  # ids of the open inner nodes
    seen: set[str] = set()

    def fail(message: str, at: int):
        raise CotreeParseError(message, len(text[:at].encode("utf-8")))

    def add(kind: str, label: str | None) -> None:
        if stack:
            children[stack[-1]].append(len(kinds))
        kinds.append(kind)
        children.append(() if label is not None else [])
        labels.append(label)

    while pos < end:
        ch = text[pos]
        if ch in _WS:
            pos += 1
            continue
        if ch == "(":
            if not stack and kinds:
                fail("trailing content after complete cotree", pos)
            pos += 1
            while pos < end and text[pos] in _WS:
                pos += 1
            start = pos
            while pos < end and text[pos] in _LEAF_CHARS:
                pos += 1
            kind = _KIND_OF_OP.get(text[start:pos])
            if kind is None:
                fail("expected operator U or J after '('", start)
            add(kind, None)
            stack.append(len(kinds) - 1)
        elif ch == ")":
            if not stack:
                fail("unbalanced ')'", pos)
            if not children[stack.pop()]:
                fail("empty node: operator without children", pos)
            pos += 1
        elif ch in _LEAF_CHARS:
            start = pos
            while pos < end and text[pos] in _LEAF_CHARS:
                pos += 1
            label = text[start:pos]
            if label in seen:
                fail(f"duplicate leaf label {label!r}", start)
            seen.add(label)
            if not stack and kinds:
                fail("trailing content after complete cotree", start)
            add(LEAF, label)
        else:
            fail(f"unexpected character {ch!r}", pos)
    if stack:
        fail("unexpected end of input: unclosed '('", end)
    if not kinds:
        fail("empty input", 0)
    return Cotree(tuple(kinds), tuple(map(tuple, children)), tuple(labels))


def _outcome(parse, text: str):
    """The tree, or the error's message and offset."""
    try:
        return parse(text)
    except CotreeParseError as exc:
        return str(exc), exc.offset


# Pieces of a fuzzed string: the grammar's tokens, labels that collide,
# whitespace the grammar allows, and characters it does not.
_PIECES = ("(", ")", "U", "J", "UJ", "a", "b", "x1", "_", "U0",
           " ", "\t", "\r", "\n", "\x0b", "\xa0", "à", ",")
_WEIGHTS = (8, 8, 4, 4, 1, 3, 3, 2, 1, 1, 6, 1, 1, 1, 1, 1, 1, 1)


def _fuzzed_strings(seed: int, count: int):
    """Half piece soup, half one- or two-piece edits of a valid tree's text,
    so that both early errors and errors deep inside a tree are common."""
    rng = random.Random(seed)
    trees = [
        to_text(random_cotree(RandomSpec(leaf_count=n, seed=seed + n)))
        for n in range(1, 9)
    ]
    for i in range(count):
        if i % 2:
            yield "".join(rng.choices(_PIECES, _WEIGHTS, k=rng.randrange(16)))
            continue
        text = rng.choice(trees)
        for _ in range(rng.randrange(1, 3)):
            at = rng.randrange(len(text) + 1)
            piece = rng.choices(_PIECES, _WEIGHTS)[0]
            cut = rng.randrange(3)  # insert, replace one character, or delete it
            text = text[:at] + (piece if cut < 2 else "") + text[at + (cut > 0):]
        yield text


@pytest.mark.parametrize("seed", [20261018, 7])
def test_token_parser_matches_the_character_loop(seed):
    parsed = failed = 0
    for text in _fuzzed_strings(seed, 100_000):
        expected = _outcome(reference_parse_cotree, text)
        assert _outcome(parse_cotree, text) == expected, repr(text)
        if isinstance(expected, Cotree):
            parsed += 1
        else:
            failed += 1
    assert parsed > 10_000 and failed > 10_000  # both paths are exercised


# Arbitrary text, tilted towards the grammar's characters.
_texts = st.one_of(
    st.binary(max_size=40).map(lambda b: b.decode("utf-8", errors="replace")),
    st.text(st.sampled_from("()UJab0_ \t\r\n\x0b\xa0à,€😀"), max_size=40),
    st.text(max_size=40),
)


@given(_texts)
@settings(deadline=None, max_examples=500)
def test_every_parse_failure_has_an_in_range_byte_offset(text):
    try:
        t = parse_cotree(text)
    except CotreeParseError as exc:
        assert 0 <= exc.offset <= len(text.encode("utf-8"))
        assert str(exc).startswith(f"syntax error at byte {exc.offset}: ")
    else:
        t.validate()


# The grammar's characters and the whitespace it allows.
_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_() \t\r\n"


def reference_tokenize(text: str) -> tuple[list[str], str | None]:
    """What ``_tokenize`` returns: the regex tokens and ``_OUTSIDE``'s match."""
    outside = _OUTSIDE.search(text)
    return _TOKEN.findall(text), None if outside is None else outside.group()


@given(st.text(st.sampled_from(_ALPHABET), max_size=60))
@settings(deadline=None, max_examples=500)
def test_split_tokens_are_the_regex_tokens_in_the_grammar_alphabet(text):
    assert _OUTSIDE.search(text) is None
    assert _tokenize(text) == reference_tokenize(text) == (_TOKEN.findall(text), None)


# Characters the grammar does not allow, among them what ``str.split``
# treats as whitespace but the grammar does not.
_OTHERS = st.one_of(
    st.sampled_from("\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000,-à😀"),
    st.characters().filter(lambda c: c not in _ALPHABET),
)


@given(st.text(st.sampled_from(_ALPHABET), max_size=30), _OTHERS,
       st.text(st.sampled_from(_ALPHABET), max_size=30))
@settings(deadline=None, max_examples=500)
def test_any_other_character_takes_the_regex_tokens(before, other, after):
    text = before + other + after
    assert _OUTSIDE.search(text) is not None
    assert _tokenize(text) == reference_tokenize(text) == (_TOKEN.findall(text), other)
    text = before + "\u2028" + after
    assert _tokenize(text) == reference_tokenize(text) == (_TOKEN.findall(text), "\u2028")


# A tree's text over 64 KiB, so that the alphabet check takes two chunks and
# part of a third.
_LONG = "(U " + " ".join(f"x{i}" for i in range(24_000)) + ")"


@pytest.mark.parametrize("at", [0, 65535, 65536, 2 * 65536 + 7, len(_LONG) - 2, len(_LONG) - 1])
@pytest.mark.parametrize("other", ["\x0b", ",", "\x00", "\x7f", "à"])
def test_a_character_outside_the_alphabet_at_a_chunk_edge(at, other):
    assert 2 * 65536 < len(_LONG) < 3 * 65536
    text = _LONG[:at] + other + _LONG[at + 1 :]
    assert _tokenize(text) == reference_tokenize(text)
    assert _tokenize(text)[1] == other
    expected = _outcome(reference_parse_cotree, text)
    assert not isinstance(expected, Cotree)
    assert _outcome(parse_cotree, text) == expected


def test_a_long_text_in_the_alphabet_is_checked_in_every_chunk():
    assert _tokenize(_LONG) == reference_tokenize(_LONG) == (_TOKEN.findall(_LONG), None)
    assert parse_cotree(_LONG) == reference_parse_cotree(_LONG)


@pytest.mark.parametrize("text", [
    "(\x0b a)",  # in the operator slot
    "(\x0b",
    "(U a b)\x0b",  # after a complete tree
    "(U a b) ,",
    "a ,",
    "(U a a ,)",  # after a duplicate label
    "(U a a\x0b b)",
    "(U a , b \x0b)",  # two different ones: the first wins
    "(U a \x0b b ,)",
    "(U a , b à)",
    "(U a à b ,)",
    "(U a , b ,)",
    ", (U a b)",
    "(U a\x0bb)",
    "(U a b\x0c",
    "(U a ))\x0b",
])
def test_the_first_character_outside_the_alphabet_keeps_its_error(text):
    assert _tokenize(text) == reference_tokenize(text)
    expected = _outcome(reference_parse_cotree, text)
    assert not isinstance(expected, Cotree)
    assert _outcome(parse_cotree, text) == expected


# Recorded from the parser as it was before the ``str.split`` tokenizer.
@pytest.mark.parametrize("text, offset, message", [
    ("a b\xa0", 2, "trailing content after complete cotree"),
    ("(U a))\x0b", 5, "unbalanced ')'"),
    ("(U a a\x0c)", 5, "duplicate leaf label 'a'"),
    ("(U a b)\u2028", 7, r"unexpected character '\u2028'"),  # the repr
    ("(X a\x85 b)", 1, "expected operator U or J after '('"),
])
def test_split_whitespace_outside_the_grammar_keeps_its_error(text, offset, message):
    with pytest.raises(CotreeParseError) as info:
        parse_cotree(text)
    assert (info.value.offset, str(info.value)) == (
        offset, f"syntax error at byte {offset}: {message}"
    )
    assert _outcome(reference_parse_cotree, text) == (str(info.value), offset)


def test_failing_strings_piped_to_the_cli_exit_2():
    sample: dict[str, tuple[str, str]] = {}  # the first failing string per message
    for text in _fuzzed_strings(11, 20_000):
        try:
            parse_cotree(text)
        except CotreeParseError as exc:
            sample.setdefault(str(exc).split(": ", 1)[1].split("'")[0], (text, str(exc)))
    assert len(sample) == 8  # every message the parser has
    # The CLI reads stdin as strict UTF-8 with no newline translation, so
    # its message, offset included, is the one raised in process.
    for text, message in sample.values():
        proc = subprocess.run(
            [sys.executable, "-m", "cosec", "parse", "-"],
            input=text.encode("utf-8"), capture_output=True,
            env=cosec_subprocess_env(), timeout=60,
        )
        assert proc.returncode == 2, repr(text)
        assert proc.stdout == b""
        assert proc.stderr == f"error: {message}\n".encode(), repr(text)
