"""The shared front end of both grammars: error texts and positions, and depth.

Each table lists malformed inputs with the message, line and column the
parser reports for them; together they reach every error path of the
tokenizer and the parsers of both languages.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from butfpi.butf.parse import ParseError, parse
from butfpi.epi.parse import ProcessParseError, parse_process

SRC = Path(__file__).resolve().parents[1] / "src"

BUTF_ERRORS = [
    ('1 $ 2', "unexpected character '$'", 1, 3),
    ('x\n  @', "unexpected character '@'", 2, 3),
    ('1 -- ok\n#', "unexpected character '#'", 2, 1),
    ('\\1. x', "expected parameter name after '\\'", 1, 2),
    ('\\', "expected parameter name after '\\'", 1, 2),
    ('\\x x', "expected '.', found 'x'", 1, 4),
    ('\\x.', "expected an expression, found 'end of input'", 1, 4),
    ('if 1 then 2', "expected 'else', found 'end of input'", 1, 12),
    ('if 1 2 else 3', "expected 'then', found 'else'", 1, 8),
    ('if 1 then 2 3', "expected 'else', found 'end of input'", 1, 14),
    ('a[1', "expected ']', found 'end of input'", 1, 4),
    ('a[1,', "expected ']', found ','", 1, 4),
    ('[1, 2', "expected ']', found 'end of input'", 1, 6),
    ('(1, 2', "expected ')', found 'end of input'", 1, 6),
    ('(', "expected an expression, found 'end of input'", 1, 2),
    ('(1, ', "expected an expression, found 'end of input'", 1, 5),
    ('5 +', "expected an expression, found 'end of input'", 1, 4),
    ('5 * )', "expected an expression, found ')'", 1, 5),
    ('', "expected an expression, found 'end of input'", 1, 1),
    ('  \n  ', "expected an expression, found 'end of input'", 2, 3),
    (')', "expected an expression, found ')'", 1, 1),
    ('1 2 )', "unexpected trailing input ')'", 1, 5),
    ('map (+', "expected an expression, found '+'", 1, 6),
    ('(+ 1)', "expected an expression, found '+'", 1, 2),
    ('then', "expected an expression, found 'then'", 1, 1),
    ('a]', "unexpected trailing input ']'", 1, 2),
    ('x\n\n  y ,', "unexpected trailing input ','", 3, 5),
    ('- x', "expected an expression, found '-'", 1, 1),
    ('f ,', "unexpected trailing input ','", 1, 3),
    ('1 @', "unexpected character '@'", 1, 3),
    ('(1 then', "expected ')' or ',' in parenthesized expression", 1, 4),
    ('(\\x. x else)', "expected ')' or ',' in parenthesized expression", 1, 8),
    ('a[1 then', "expected ']', found 'then'", 1, 5),
    ('[1 then', "expected ']', found 'then'", 1, 4),
    ('(1, 2 then', "expected ')', found 'then'", 1, 7),
    ('1 = 2', "unexpected character '='", 1, 3),
    ('a <= b', "unexpected character '<'", 1, 3),
    ('if 1 then 2 else', "expected an expression, found 'end of input'", 1, 17),
    ('x\ty\r\n  (', "expected an expression, found 'end of input'", 2, 4),
    ('(-)(1', "expected ')' or ',' in parenthesized expression", 1, 6),
    ('map[', "expected an expression, found 'end of input'", 1, 5),
    ('-- only a comment', "expected an expression, found 'end of input'", 1, 1),
]

PROCESS_ERRORS = [
    ('a<1> & b', "unexpected character '&'", 1, 6),
    ('a<1>\n  ~', "unexpected character '~'", 2, 3),
    ('new . P', "expected a name after 'new', found '.'", 1, 5),
    ('new a b', "expected '.', found 'b'", 1, 7),
    ('new a, . P', "expected a name, found '.'", 1, 8),
    ('new a, b P', "expected '.', found 'P'", 1, 10),
    ('a<1> | ', "expected a process, found 'end of input'", 1, 8),
    ('[a b] P, Q', 'expected a comparator in match', 1, 4),
    ('[a < b P', "expected ']', found 'P'", 1, 8),
    ('[1 <', "expected a term, found 'end of input'", 1, 5),
    ('(a<1>', "expected ')', found 'end of input'", 1, 6),
    ('(a<1> b', "expected ')', found 'b'", 1, 7),
    ('a(x', "expected ')', found 'end of input'", 1, 4),
    ('a(x y)', "expected ')', found 'y'", 1, 5),
    ('a(1)', "expected a pattern variable, found '1'", 1, 3),
    ('a(x,)', "expected a pattern variable, found ')'", 1, 5),
    ('a<1', "expected '>', found 'end of input'", 1, 4),
    ('a<1 2>', "expected '>', found '2'", 1, 5),
    ('a<1,>', "expected a term, found '>'", 1, 5),
    ('a', "expected '<', '(' or ':<' after channel", 1, 2),
    ('a:', "expected '<', '(' or ':<' after channel", 1, 3),
    ('a: (x)', "expected '<', '(' or ':<' after channel", 1, 4),
    ('a.', 'expected a channel suffix', 1, 3),
    ('a.(x)', 'expected a channel suffix', 1, 3),
    ('a.-x<>', 'expected a channel suffix', 1, 3),
    ('a<(1>', "expected ')', found '>'", 1, 5),
    ('a<(1 2)>', "expected ')', found '2'", 1, 6),
    ('a<>>', "unexpected trailing input '>'", 1, 4),
    ('a<|>', "expected a term, found '|'", 1, 3),
    ('1', "expected a process, found '1'", 1, 1),
    (')', "expected a process, found ')'", 1, 1),
    ('', "expected a process, found 'end of input'", 1, 1),
    ('a<1> b<2>', "unexpected trailing input 'b'", 1, 6),
    ('a<1>.', "expected a process, found 'end of input'", 1, 6),
    ('a<1>. |', "expected a process, found '|'", 1, 7),
    ('|', "expected a process, found '|'", 1, 1),
    ('a<1>\n-- c\n  b', "unexpected trailing input 'b'", 3, 3),
    ('a.all.x<>', "expected '<', '(' or ':<' after channel", 1, 6),
    ('[1 == ] 0', "expected a term, found ']'", 1, 7),
    ('! ', "expected a process, found 'end of input'", 1, 3),
    ('* )', "expected a process, found ')'", 1, 3),
    ('new', "expected a name after 'new', found 'end of input'", 1, 4),
    ('a<1 + >', "expected a term, found '>'", 1, 7),
    ('a<1 * >', "expected a term, found '>'", 1, 7),
    ('[1 =< 2] 0', "expected a term, found '<'", 1, 5),
    ('[1 <= ] 0', "expected a term, found ']'", 1, 7),
    ('[1 != 2 0', "expected ']', found '0'", 1, 9),
    ('[1 == 2] 0, ', "expected a process, found 'end of input'", 1, 13),
    ('a<1> \\ b', "unexpected character '\\\\'", 1, 6),
    ('a<if>.b', "expected '<', '(' or ':<' after channel", 1, 8),
    ('a(x).x<y>.', "expected a process, found 'end of input'", 1, 11),
    ('new a.\t(a<1> |\n', "expected a process, found 'end of input'", 2, 1),
    ('a<1 -- c\n>>', "unexpected trailing input '>'", 2, 2),
    ('a<-x>', "expected a term, found '-'", 1, 3),
    ('o<1>\r\n\t=', "unexpected trailing input '='", 2, 2),
]


@pytest.mark.parametrize("text, message, line, col", BUTF_ERRORS)
def test_source_parse_errors(text, message, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert type(exc.value) is ParseError
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)
    assert str(exc.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("text, message, line, col", PROCESS_ERRORS)
def test_process_parse_errors(text, message, line, col):
    with pytest.raises(ProcessParseError) as exc:
        parse_process(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)
    assert str(exc.value) == f"{line}:{col}: {message}"


def test_process_parse_error_is_a_parse_error():
    assert issubclass(ProcessParseError, ParseError)


def test_nesting_depths_parse_at_the_default_recursion_limit():
    # a fresh interpreter, so the limit and the frames below the parser are
    # the same as in a command-line run
    code = (
        "import sys\n"
        "from butfpi.butf.parse import parse\n"
        "from butfpi.epi.parse import parse_process\n"
        "assert sys.getrecursionlimit() == 1000\n"
        "parse('(' * 164 + '1' + ')' * 164)\n"
        "parse_process('(' * 495 + '0' + ')' * 495)\n"
        "parse_process('a<' + '(' * 329 + '1' + ')' * 329 + '>')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
