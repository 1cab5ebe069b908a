"""Module-definition files: a JSON schema for :class:`GradedModule`.

The document is a single JSON object:

.. code-block:: json

    {
      "name": "rp2",
      "top_degree": 2,
      "generators": [["t1", 1], ["t2", 2]],
      "sq": {"t1": {"1": ["t2"]}},
      "products": {"t1,t2": [], "t1,t1": ["t2"]}
    }

``sq`` maps a generator id to a map from square index (a positive
integer in plain decimal, as a string, JSON keys being strings) to the
list of target ids.  ``products`` keys are comma-joined id pairs, each
unordered pair at most once; pairs are stored with the smaller id first.
Degrees are JSON integers, not ``true`` or ``false``, and no JSON object
repeats a key.  Absent entries mean zero in both tables.  Ids match
``[A-Za-z][A-Za-z0-9_]*``.  Loading checks structure only (ids exist,
every field has the right JSON type and shape; any violation is a
``ValueError``); semantic checks belong to ``verify_axioms``, so a
deliberately wrong action table still loads and can be reported on.
A ``"unit"`` key loads only if it is ``null``: a module has no unit class.

Serialization is canonical: sorted keys, sorted lists, two-space
indent.  ``dumps`` writes the text straight from the tables, byte for
byte what ``f2.dumps_json`` (the writer of every other JSON document of
the package) writes of ``module_to_dict``.  load(save(M)) reproduces the
module exactly.
"""

from __future__ import annotations

import json
import os

from .f2 import dumps_json
from .modules import GradedModule, pair_key


def module_to_dict(module: GradedModule) -> dict:
    sq: dict[str, dict[str, list[str]]] = {}
    for (gid, i), targets in sorted(module.sq.items()):
        sq.setdefault(gid, {})[str(i)] = sorted(targets)
    products = {
        f"{g},{h}": sorted(targets)
        for (g, h), targets in sorted(module.products.items())
    }
    return {
        "name": module.name,
        "top_degree": module.top_degree,
        "generators": [[gid, d] for gid, d in module.generators],
        "sq": sq,
        "products": products,
    }


def _array(value, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a JSON array")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def module_from_dict(doc: dict) -> GradedModule:
    _object(doc, "module document")
    for key in ("name", "top_degree", "generators", "sq", "products"):
        if key not in doc:
            raise ValueError(f"module document is missing the {key!r} field")

    name = doc["name"]
    top_degree = doc["top_degree"]
    if not isinstance(name, str) or type(top_degree) is not int:
        raise ValueError("'name' must be a string and 'top_degree' an int")

    generators: list[tuple[str, int]] = []
    ids: set[str] = set()
    for entry in _array(doc["generators"], "'generators'"):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"generator entry {entry!r} must be an [id, degree] pair")
        gid, d = entry
        if not isinstance(gid, str) or not (gid.isascii() and gid.isidentifier() and gid[0] != "_"):
            raise ValueError(f"bad generator id {gid!r}")
        if type(d) is not int or d < 1:
            raise ValueError(f"generator {gid!r} needs a positive integer degree")
        ids.add(gid)
        generators.append((gid, d))

    if doc.get("unit") is not None:
        raise ValueError("'unit' must be null or absent: a module has no unit class")

    def known(gid: str, context: str) -> str:
        if not isinstance(gid, str) or gid not in ids:
            raise ValueError(f"{context} refers to unknown generator {gid!r}")
        return gid

    def known_set(targets: list, context: str, *args: object) -> frozenset[str]:
        """A target list as a set of known ids; the error names its first bad entry.

        ``context.format(*args)`` names the entry in an error message, and is built only for one.
        """
        try:
            value = frozenset(targets if isinstance(targets, (list, tuple)) else _array(targets, context.format(*args)))
            if value <= ids:
                return value
        except TypeError:  # an unhashable entry
            pass
        where = context.format(*args)
        return frozenset(known(t, where) for t in targets)

    sq: dict[tuple[str, int], frozenset[str]] = {}
    for gid, table in _object(doc["sq"], "'sq'").items():
        known(gid, "sq table")
        for index, targets in _object(table, f"sq table of {gid!r}").items():
            if not isinstance(index, str) or not (index.isascii() and index.isdecimal() and index[0] != "0"):
                raise ValueError(f"sq index {index!r} for {gid!r} must be a positive integer in plain decimal")
            i = int(index)
            value = known_set(targets, "Sq{}({})", i, gid)
            if value:
                sq[(gid, i)] = value

    products: dict[tuple[str, str], frozenset[str]] = {}
    pairs: set[tuple[str, str]] = set()
    for key, targets in _object(doc["products"], "'products'").items():
        parts = key.split(",") if isinstance(key, str) else ()
        if len(parts) != 2:
            raise ValueError(f"product key {key!r} must be 'id,id'")
        g, h = parts if parts[0] in ids and parts[1] in ids else (known(p, "product table") for p in parts)
        pair = pair_key(g, h)
        if pair in pairs:
            raise ValueError(f"product key {key!r} repeats the pair of an earlier key")
        pairs.add(pair)
        value = known_set(targets, "{} cup {}", g, h)
        if value:
            products[pair] = value

    return GradedModule(name, tuple(generators), sq, products, top_degree)


class _Quoted(dict):
    """Ids mapped to their JSON strings; any other value is written by ``dumps_json``."""

    def __missing__(self, value: object) -> str:
        return dumps_json(value)


def _lines(items: list[str], pad: str, brackets: str) -> str:
    """``items`` one to a line inside ``brackets``, indented two spaces past ``pad``."""
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1] if items else brackets


def dumps(module: GradedModule) -> str:
    """``dumps_json(module_to_dict(module)) + "\\n"``, written straight from the tables.

    A generator id that ``dumps_json`` would not escape is quoted as it is;
    any other id, and the name, is written by ``dumps_json``.
    """
    quote, generators = _Quoted(), []
    for gid, d in module.generators:
        if type(gid) is str and gid.isascii() and gid.isprintable() and '"' not in gid and "\\" not in gid:
            quote[gid] = f'"{gid}"'
        generators.append(f"[\n      {quote[gid]},\n      {d if type(d) is int else dumps_json(d)}\n    ]")
    sep6, sep8 = ",\n      ", ",\n        "  # no backslash may stand in an f-string expression before 3.12
    by_gen: dict = {}  # an entry '"i": ...' sorts where str(i) does: '"' is below every digit and '-'
    for (gid, i), targets in module.sq.items():
        by_gen.setdefault(gid, []).append(
            f'"{i}": [\n        {sep8.join(map(quote.__getitem__, sorted(targets)))}\n      ]'
            if targets else f'"{i}": []'
        )
    squares = [quote[gid] + ": " + _lines(sorted(by_gen[gid]), "\n    ", "{}") for gid in sorted(by_gen)]
    # Keys that coincide (ids with commas) keep the last pair in pair order, as module_to_dict does.
    cups = {f"{g},{h}": (g in quote and h in quote, targets) for (g, h), targets in sorted(module.products.items())}
    products = [
        (f'"{key}"' if plain else dumps_json(key))
        + (f": [\n      {sep6.join(map(quote.__getitem__, sorted(targets)))}\n    ]" if targets else ": []")
        for key, (plain, targets) in sorted(cups.items())
    ]
    return '{\n  "generators": %s,\n  "name": %s,\n  "products": %s,\n  "sq": %s,\n  "top_degree": %s\n}\n' % (
        _lines(generators, "\n  ", "[]"), dumps_json(module.name), _lines(products, "\n  ", "{}"),
        _lines(squares, "\n  ", "{}"), dumps_json(module.top_degree),
    )


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"JSON object repeats the key {max(keys, key=keys.count)!r}")
    return doc


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def loads(text: str) -> GradedModule:
    if text.startswith("\ufeff"):  # refused as json.loads refuses it
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return module_from_dict(_DECODER.decode(text))


def save(module: GradedModule, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(module))


def load(path: str | os.PathLike) -> GradedModule:
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())
