"""The extended pi-calculus: polyadic channels, composite names, broadcast."""

from butfpi.epi.syntax import (
    Act,
    Bcast,
    Bullet,
    Chan,
    Match,
    NameT,
    New,
    Nil,
    NumT,
    OpT,
    Par,
    Process,
    Recv,
    Repl,
    Send,
    Term,
    TermError,
    VarT,
    eval_term,
    par,
    seq_news,
)
from butfpi.epi.parse import ProcessParseError, parse_process
from butfpi.epi.pretty import pretty_process, render_chan
from butfpi.epi.engine import (
    Config,
    EngineError,
    Redex,
    Trace,
    apply_redex,
    barbs,
    canonical_key,
    enabled_redexes,
    explore,
    head_of,
    insert_process,
    normalize,
    run,
)

__all__ = [
    "Act", "Bcast", "Bullet", "Chan", "Match", "NameT", "New", "Nil", "NumT",
    "OpT", "Par", "Process", "Recv", "Repl", "Send", "Term", "TermError",
    "VarT", "eval_term", "par", "seq_news",
    "ProcessParseError", "parse_process", "pretty_process", "render_chan",
    "Config", "EngineError", "Redex", "Trace", "apply_redex", "barbs",
    "canonical_key", "enabled_redexes", "explore", "head_of", "insert_process",
    "normalize", "run",
]
