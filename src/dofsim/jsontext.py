"""The one writer of dofsim's JSON artifacts: ``json``'s indented text
without its pure-Python encoder."""

from json.encoder import encode_basestring_ascii as _string

_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {False: "false", True: "true", None: "null"}
_TYPES = {float, dict, list, tuple, str, int, bool, type(None)}
#: What a subclass is written as, in ``json``'s order of checks; bool and None have none.
_BASES = (str, int, float, list, tuple, dict)


def _encode(o, nl: str) -> str:
    kind = type(o)
    if kind not in _TYPES:
        kind = next((base for base in _BASES if isinstance(o, base)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if kind is float:
        text = float.__repr__(o)
        return _SPECIAL.get(text, text)
    if kind is dict:
        inner = nl + "  "
        fields = [_string(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(fields) + nl + "}" if fields else "{}"
    if kind is list or kind is tuple:
        inner = nl + "  "
        items = [_encode(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    if kind is str:
        return _string(o)
    if kind is int:
        return int.__repr__(o)
    return _CONSTANTS[o]


def dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    ``doc`` holds dicts, lists, tuples, ``str``, ``int``, ``bool``, ``None``
    and ``float`` (subclasses such as ``numpy.float64`` too; NaN and
    +-Infinity spelled as ``json`` spells them).  Anything else raises
    TypeError, as in ``json``; so does a dict key that is not a ``str``,
    which ``json`` would coerce, since it would not read back as itself.
    Cycles are not detected.
    """
    return _encode(doc, "\n") + "\n"
