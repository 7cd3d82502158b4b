"""How well a labeled graph approximates a group: per-word defect fractions.

A word acts by composing generator permutations with the rightmost letter
acting first, i.e. ``(s1 ... sk).x`` evaluates inside out.  A word expected to
be the identity in the target group is charged for its non-fixed vertices;
any other word is charged for its fixed vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_graph import GeneratorSet, LabeledGraph

__all__ = [
    "Word",
    "SoficReport",
    "word_action",
    "defect",
    "sofic_report",
    "random_permutation_model",
    "reduced_words",
    "parse_words_text",
    "format_words_text",
]


@dataclass(frozen=True)
class Word:
    letters: tuple[str, ...]
    expects_identity: bool


@dataclass
class SoficReport:
    defects: list[tuple[Word, float]]
    max_defect: float
    n: int

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "max_defect": self.max_defect,
            "words": [
                {
                    "letters": list(w.letters),
                    "expects_identity": w.expects_identity,
                    "defect": d,
                }
                for w, d in self.defects
            ],
        }


def word_action(g: LabeledGraph, w: Word) -> np.ndarray:
    """Permutation of the word: x -> s1 ... sk . x (rightmost letter first)."""
    return next(_word_actions(g, [w], np.arange(g.n)))


def _word_actions(g: LabeledGraph, words, identity: np.ndarray):
    """The permutation of each word in turn, as in :func:`word_action`.

    ``prefixes[j]`` is the permutation of the first j letters of the last
    word, ``prefixes[0]`` the ``identity``, and the first j + 1 letters act
    as ``prefixes[j][g.action(s)]`` for the next letter s.  A word is
    evaluated from the longest prefix it shares with the word before it: in
    depth-first order (:func:`reduced_words`) that is one gather per word.
    A yielded array is shared with later words; do not write to it."""
    prefixes = [identity]
    last: tuple[str, ...] = ()
    for w in words:
        shared = 0
        while shared < min(len(last), len(w.letters)) and last[shared] == w.letters[shared]:
            shared += 1
        del prefixes[shared + 1 :]
        for s in w.letters[shared:]:
            prefixes.append(prefixes[-1][g.action(s)])
        last = w.letters
        yield prefixes[-1]


def _wrong_fraction(act: np.ndarray, identity: np.ndarray, w: Word) -> float:
    """Fraction of vertices on which ``act``, the permutation of ``w``, acts
    incorrectly."""
    n = identity.size
    fixed = int(np.count_nonzero(act == identity))
    bad = (n - fixed) if w.expects_identity else fixed
    return bad / n if n else 0.0


def defect(g: LabeledGraph, w: Word) -> float:
    """Fraction of vertices on which the word acts incorrectly."""
    return _wrong_fraction(word_action(g, w), np.arange(g.n), w)


def sofic_report(g: LabeledGraph, words) -> SoficReport:
    """The defect of every word, each word evaluated from the prefix it
    shares with the word before it."""
    words = list(words)
    if not words:
        raise ValueError("word list must be nonempty")
    identity = np.arange(g.n)
    defects = [(w, _wrong_fraction(act, identity, w)) for w, act in zip(words, _word_actions(g, words, identity))]
    return SoficReport(defects, max(d for _, d in defects), g.n)


def random_permutation_model(n: int, pairs: int, seed: int) -> LabeledGraph:
    """Independent uniform permutations with formal inverses, one per pair."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if pairs < 0:
        raise ValueError("pairs must be >= 0")
    gens = GeneratorSet.from_pairs([(f"s{i}", f"s{i}'") for i in range(pairs)])
    rng = np.random.default_rng(seed)
    actions = []
    for _ in range(pairs):
        p = rng.permutation(n)
        actions.extend([p, np.argsort(p)])
    return LabeledGraph(n, gens, np.asarray(actions, dtype=np.int64).reshape(2 * pairs, n))


def reduced_words(gens: GeneratorSet, max_len: int, expects_identity: bool = False) -> list[Word]:
    """All freely reduced nonempty words up to ``max_len``, in depth-first
    lexicographic symbol order."""
    out: list[Word] = []

    def extend(prefix: tuple[str, ...]):
        last_inv = gens.inverse_symbol(prefix[-1]) if prefix else None
        for s in gens.symbols:
            if s == last_inv:
                continue
            w = prefix + (s,)
            out.append(Word(w, expects_identity))
            if len(w) < max_len:
                extend(w)

    if max_len >= 1:
        extend(())
    return out


def parse_words_text(text: str) -> list[Word]:
    """One word per line, letters space-separated; a leading ``!`` marks
    ``expects_identity=False``.  ``()`` spells the empty word.  Blank lines
    and ``#`` comments are skipped."""
    words = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        expects = True
        if line.startswith("!"):
            expects = False
            line = line[1:].strip()
        letters = tuple(line.split())
        if letters == ("()",):
            letters = ()
        words.append(Word(letters, expects))
    return words


def format_words_text(words) -> str:
    lines = []
    for w in words:
        body = " ".join(w.letters) if w.letters else "()"
        lines.append(body if w.expects_identity else "! " + body)
    return "\n".join(lines) + "\n"
