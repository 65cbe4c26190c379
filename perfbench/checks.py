"""Output checks for the benchmark workloads.

Each checker takes plain data (strings, ints, lists, numpy arrays) and returns
a list of problems, empty when the output is right.  The expected values come
from identities that do not run the code under test:

* fullness verdicts: a reference table recorded from a trusted commit
  (`reference/fullness_verdicts.json`, written by `make_reference.py`) and
  the JSON schemas of the CLI;
* non-crossing Gram rank: the non-crossing pairing count, from an interval
  recursion over the word (the functionals are independent for n >= 2);
* Gram rows: pairings of a word with k plain letters correspond to
  permutations of S_k and loops to cycles, so every row sums to
  n (n+1) ... (n+k-1);
* matrix models: u11 and u12 commute in point and lift models (scalars, or
  scalars times one shared unitary) and in block models with n < 4 (u12 is a
  zero block), and almost never commute in the others; witnesses are
  re-checked for unitarity and for their commutator norm with numpy directly.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np

RESIDUAL_TOL = 1e-10


def balanced_words(length: int) -> list[str]:
    """Balanced words over 'u'/'U' of one length, 'u' before 'U' lexicographically."""
    return [
        "".join(letters)
        for letters in itertools.product("uU", repeat=length)
        if 2 * letters.count("u") == length
    ]


def balanced_words_upto(max_len: int) -> list[str]:
    return [w for length in range(0, max_len + 1, 2) for w in balanced_words(length)]


def noncrossing_count(word: str) -> int:
    """Number of non-crossing u-U pairings of the word."""

    @lru_cache(maxsize=None)
    def count(i: int, j: int) -> int:
        # pairings of word[i:j]; word[i] pairs with word[k] and splits the rest
        if i == j:
            return 1
        return sum(
            count(i + 1, k) * count(k + 1, j)
            for k in range(i + 1, j, 2)
            if word[k] != word[i]
        )

    return count(0, len(word)) if len(word) % 2 == 0 else 0


def rising_factorial(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n + i
    return out


def symmetry_orbit(word: str) -> frozenset[str]:
    """Rotations, the reflection and the u<->U conjugation of a word."""
    out = set()
    for mirrored in (word, word[::-1]):
        for flipped in (mirrored, mirrored.swapcase()):
            for r in range(max(len(flipped), 1)):
                out.add(flipped[r:] + flipped[:r])
    return frozenset(out)


def config_key(n: int, d_w: int, d_u: int) -> str:
    return f"{n};{d_w},{d_u}"


def check_fullness(code, text, words, config, reference, validators) -> list[str]:
    """A `freeqg fullness` JSON run: exit code, schemas, verdicts vs reference."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        report = json.loads(text)
    except ValueError:
        return problems + ["output is not one JSON object"]
    envelope, result_schema = validators
    for error in envelope.iter_errors(report):
        problems.append(f"envelope: {error.message}")
    if problems:
        return problems
    for error in result_schema.iter_errors(report["result"]):
        problems.append(f"result: {error.message}")
    if problems:
        return problems
    verdicts = report["result"]["verdicts"]
    if [v["word"] for v in verdicts] != list(words):
        return problems + [f"verdict words differ from the {len(words)} requested"]
    table = reference[config_key(*config)]
    for v in verdicts:
        holds, dim = table[v["word"]]
        if (v["holds"], v["solution_dim"]) != (holds, dim):
            problems.append(
                f"{v['word']}: holds={v['holds']} dim={v['solution_dim']}, "
                f"reference holds={holds} dim={dim}"
            )
        if v["n"] != config[0] or v["quotient"] != list(config[1:]):
            problems.append(f"{v['word']}: wrong configuration echoed")
        if (v["witness"] is None) != v["holds"]:
            problems.append(f"{v['word']}: witness present iff verdict fails")
    if report["result"]["all_hold"] != all(v["holds"] for v in verdicts):
        problems.append("all_hold disagrees with the verdicts")
    return problems


def check_rank(word: str, rank) -> list[str]:
    expected = noncrossing_count(word)
    if rank != expected:
        return [f"nc_rank({word}) = {rank}, non-crossing count is {expected}"]
    return []


def _is_noncrossing(arcs) -> bool:
    return not any(a < c < b < d for (a, b), (c, d) in itertools.permutations(arcs, 2))


def check_gram(word: str, n: int, pairings, rows, noncrossing, trivial) -> list[str]:
    """pairings/noncrossing are lists of arc tuples, rows an iterable of the
    Gram rows as ints or Fractions, read one row at a time."""
    problems = []
    k = word.count("u")
    positions = list(range(1, len(word) + 1))
    if len(set(pairings)) != len(pairings) or len(pairings) != math.factorial(k):
        problems.append(f"{len(pairings)} distinct pairings, expected {k}!")
    for arcs in pairings:
        if sorted(p for arc in arcs for p in arc) != positions or any(
            word[a - 1] == word[b - 1] for a, b in arcs
        ):
            problems.append(f"{arcs} is not a u-U pairing of {word}")
            break
    total = rising_factorial(n, k)
    count = 0
    for row in rows:
        if len(row) != len(pairings):
            return problems + ["Gram matrix is not square over the pairings"]
        if sum(row) != total:
            return problems + [f"Gram row {count} sums to {sum(row)}, expected {total}"]
        count += 1
    if count != len(pairings):
        return problems + ["Gram matrix is not square over the pairings"]
    expected_nc = noncrossing_count(word)
    if len(noncrossing) != expected_nc or not set(noncrossing) <= set(pairings):
        problems.append(f"{len(noncrossing)} non-crossing pairings, expected {expected_nc}")
    if not all(_is_noncrossing(arcs) for arcs in noncrossing):
        problems.append("a crossing pairing was listed as non-crossing")
    if trivial != expected_nc:
        problems.append(f"trivial multiplicity {trivial}, expected {expected_nc}")
    return problems


def separates(kind: str, n: int) -> bool:
    """Whether random models of this kind separate u11 u12 - u12 u11 from 0."""
    return kind == "freeproduct" or (kind == "block" and n >= 4)


def _unitarity_residual(big: np.ndarray) -> float:
    eye = np.eye(big.shape[0])
    return max(
        np.linalg.norm(big.conj().T @ big - eye, 2),
        np.linalg.norm(big @ big.conj().T - eye, 2),
    )


def check_model(kind: str, n: int, images, norm, tol: float) -> list[str]:
    """images is the (n, n, d, d) witness array, or None when nothing separated."""
    expected = separates(kind, n)
    if images is None:
        return [f"{kind} n={n}: no witness found"] if expected else []
    if not expected:
        return [f"{kind} n={n}: witness reported where the generators commute"]
    problems = []
    big = np.block([[images[i, j] for j in range(n)] for i in range(n)])
    adj = np.block([[images[i, j].conj().T for j in range(n)] for i in range(n)])
    for label, mat in (("u", big), ("entrywise adjoint of u", adj)):
        residual = _unitarity_residual(mat)
        if not residual <= RESIDUAL_TOL:
            problems.append(f"{label} is not unitary: residual {residual:.3e}")
    a, b = images[0, 0], images[0, 1]
    commutator = np.linalg.norm(a @ b - b @ a, 2)
    if not commutator > tol:
        problems.append(f"commutator norm {commutator:.3e} is not above tol {tol}")
    if not abs(commutator - norm) <= 1e-9 * max(1.0, commutator):
        problems.append(f"reported norm {norm!r} differs from {commutator!r}")
    return problems
