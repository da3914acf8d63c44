"""Seeded fuzz: mangled complex and cover documents end in CircletError.

Documents of small even complexes and of their covers are mangled: a
value becomes junk of another type, a key or list entry is deleted, or an
id is swapped, at one place or wherever it occurs, for another id or for
one that looks generated (``s#2``, ``f^``). Each document goes through the loaders, then each of
decompose_into_circlets, euler_cover, verify_cover and side_tour that
applies to it. A call may return or raise a CircletError; anything else
escaping from the library fails the test. Every mangled cover document
that loads must also get the same report from verify_cover as from the
corner-link reference in oracles.py, and every mangled cover whose
gluing reads back must read back the same gluing once rebuilt from it.
Every mangled complex, cover source and cover target must load to the
same tables, or raise the same class and message, as through the
loader's general path alone.
"""

import copy
import random

import builders
import oracles
from circlet import (
    build_glued_complex,
    decompose_into_circlets,
    euler_cover,
    gluing_from_cover,
    serialize,
    side_tour,
    verify_cover,
)
from circlet.errors import CircletError
from circlet.families import cycle, finned_circlet, hypercube_skeleton, random_even

DOCUMENTS = 1500

JUNK = [
    None,
    True,
    False,
    0,
    -1,
    3,
    10**30,
    1.5,
    float("nan"),
    "",
    "x",
    [],
    [None],
    [1, "a"],
    {},
    {"id": 1},
]


def bases():
    complexes = [
        cycle(4),
        hypercube_skeleton(3, 2),
        finned_circlet(3, 4),
        builders.two_cycle(),
        builders.finned_chain(2),
        *(random_even(s, 3) for s in range(3)),
    ]
    docs = [("complex", serialize.complex_to_dict(k)) for k in complexes]
    docs += [
        ("cover", serialize.cover_to_dict(euler_cover(k))) for k in complexes[:6]
    ]
    return docs


def spots(doc):
    """Every (container, key) pair inside a JSON document."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return out


def mangle(doc, rng):
    """A deep copy of the document with one to three edits. Most rename or
    swap ids, so that many mangled documents still load and reach the
    library; the rest delete an entry or put junk in its place."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        where = spots(doc)
        named = [(node, key) for node, key in where if isinstance(node[key], str)]
        roll = rng.random()
        if roll < 0.65 and named:
            node, key = rng.choice(named)
            old, other = node[key], rng.choice(named)
            other = other[0][other[1]]
            new = rng.choice(
                [other, f"{other}#{rng.randrange(4)}", f"{other}^", "s#2", "f^"]
            )
            if roll < 0.35:  # every occurrence: a relabeling
                for node, key in named:
                    if node[key] == old:
                        node[key] = new
            else:
                node[key] = new
        elif where:
            node, key = rng.choice(where)
            if roll < 0.8:
                del node[key]
            else:
                node[key] = copy.deepcopy(rng.choice(JUNK))
    return doc


def run(kind, doc, tmp_path):
    """Load, then call each applicable stage; returns the escapes."""
    try:
        if kind == "complex":
            k = serialize.complex_from_dict(doc)
            calls = [(decompose_into_circlets, k), (euler_cover, k), (side_tour, k)]
        else:
            cover = serialize.cover_from_dict(doc, base_dir=tmp_path)
            calls = [(verify_cover, cover), (side_tour, cover.source)]
    except CircletError:
        return []
    except Exception as exc:  # an escape is the finding, whatever its type
        return [("load", exc)]
    escapes = []
    for fn, arg in calls:
        try:
            fn(arg)
        except CircletError:
            pass
        except Exception as exc:
            escapes.append((fn.__name__, exc))
    return escapes


def test_mangled_documents_raise_only_circlet_errors(tmp_path):
    rng = random.Random(20241018)
    docs = bases()
    escapes = []
    for i in range(DOCUMENTS):
        kind, doc = docs[i % len(docs)]
        for stage, exc in run(kind, mangle(doc, rng), tmp_path):
            escapes.append(f"document {i} ({kind}), {stage}: {exc!r}")
    assert not escapes, "\n".join(escapes[:10])


def outcome(fn, cover):
    try:
        return fn(cover)
    except Exception as exc:
        return type(exc), str(exc)


def test_mangled_covers_verify_as_the_link_reference(tmp_path):
    rng = random.Random(20261018)
    docs = [doc for kind, doc in bases() if kind == "cover"]
    loaded = 0
    for i in range(DOCUMENTS):
        doc = mangle(docs[i % len(docs)], rng)
        try:
            cover = serialize.cover_from_dict(doc, base_dir=tmp_path)
        except CircletError:
            continue
        loaded += 1
        got = outcome(verify_cover, cover)
        assert got == outcome(oracles.verify_by_links, cover), f"document {i}"
    assert loaded > DOCUMENTS // 10  # 314 of the 1500 load


def test_mangled_covers_read_back_a_gluing_they_rebuild(tmp_path):
    rng = random.Random(20261019)
    docs = [doc for kind, doc in bases() if kind == "cover"]
    read = 0
    for i in range(DOCUMENTS):
        doc = mangle(docs[i % len(docs)], rng)
        try:
            cover = serialize.cover_from_dict(doc, base_dir=tmp_path)
            g = gluing_from_cover(cover)
        except CircletError:
            continue
        read += 1
        rebuilt = build_glued_complex(cover.target, g)
        assert gluing_from_cover(rebuilt) == g, f"document {i}"
    assert read > DOCUMENTS // 10  # 185 of the 1500 read back


def test_mangled_documents_load_as_the_general_path():
    # complexes, and the source and target of covers, mangled: the loader
    # must build the general path's tables or raise its class and message
    rng = random.Random(20261020)
    docs = bases()
    one_pass = loaded = 0
    for i in range(DOCUMENTS):
        kind, doc = docs[i % len(docs)]
        doc = mangle(doc, rng)
        parts = [doc] if kind == "complex" else [doc.get("source"), doc.get("target")]
        for part in parts:
            want = oracles.load_outcome(oracles.complex_by_general_path, part)
            got = oracles.load_outcome(serialize.complex_from_dict, part)
            assert got == want, f"document {i} ({kind})"
            loaded += isinstance(want[0], int)
            one_pass += oracles.reads_in_one_pass(part)
    # 539 parts load in one pass, 373 only by the general path
    assert one_pass > DOCUMENTS // 10 and loaded - one_pass > DOCUMENTS // 10
