"""The correctness gate's reference: a brute-force ternary matcher.

Independent of the program's packed-plane kernels: every stored word
becomes a pair of Python ints (value bits, care bits), and a binary query
matches a word when ``(query ^ value) & care == 0``.  Matches come back in
the order the caller lists the entries, which is the store's global
priority order.
"""


class Mismatch(AssertionError):
    """A served result disagrees with the reference."""


def compile_entries(pairs):
    """``[(key, word)]`` -> ``[(key, value, care)]`` for :func:`matches`."""
    out = []
    for key, word in pairs:
        value = int(word.replace("X", "0"), 2)
        care = int(word.replace("0", "1").replace("X", "0"), 2)
        out.append((key, value, care))
    return out


def matches(compiled, bits):
    """Keys of every entry matching the binary query ``bits``."""
    query = int(bits, 2)
    return [key for key, value, care in compiled
            if not (query ^ value) & care]


def stored_pairs(store):
    """``[(key, word)]`` in priority order, read back from the arena.

    The words come from ``stored_words()`` (the arena rows), joined to
    keys through each entry's bank/row placement; the read-back must
    agree with the entry map, and no row may hold a word no entry owns.
    """
    fabric = store.backend.fabric
    words = fabric.stored_words()
    span = fabric.rows_per_bank
    pairs = []
    for entry in store.entries():
        word = words[entry.bank * span + entry.row]
        if word != entry.word:
            raise Mismatch(f"arena row of {entry.key!r} holds {word!r}, "
                           f"entry says {entry.word!r}")
        pairs.append((entry.key, word))
    occupied = sum(word is not None for word in words)
    if occupied != len(pairs):
        raise Mismatch(f"{occupied} arena rows hold words, "
                       f"{len(pairs)} entries exist")
    return pairs


def check_served(compiled, queries, served, what):
    """Every served result's ordered match keys equal the reference's."""
    for bits, result in zip(queries, served):
        expected = matches(compiled, bits)
        got = list(result.match_keys)
        if got != expected:
            raise Mismatch(f"{what}: query {bits} served {got[:4]}..., "
                           f"reference {expected[:4]}...")


def hit_queries(rng, words, n):
    """Binary queries built from stored words (each ``X`` filled at
    random), so the gate checks hits and not just misses."""
    out = []
    for index in rng.choice(len(words), size=n, replace=False):
        word = words[int(index)]
        fill = rng.integers(0, 2, size=len(word))
        out.append("".join(c if c != "X" else "01"[int(b)]
                           for c, b in zip(word, fill)))
    return out
