"""System presentation files, certificate files, and canonical hashing.

Presentation files are JSON with exact rationals as strings and a versioned
schema field.  A canonical-serialization digest binds certificates to the
presentation they were produced from, so a certificate can never be verified
against the wrong ideal.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import gcd

from .ideals import IdealPresentation
from .mixing import FAMILIES, NonMixingCertificate
from .numfield import FieldElement, NumberField
from .ring import GF, LaurentPoly, ParseError, expvec, rational
from .systems import (
    AlgebraicSystem,
    CharPModule,
    EvaluationModule,
    RationalDualModule,
    free_abelian,
    positive_rationals,
    rational_vector,
)

SCHEMA_VERSION = 1


class PresentationError(ValueError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def system_hash(normalized: dict) -> str:
    return hashlib.sha256(canonical_json(normalized).encode()).hexdigest()


class LoadedSystem:
    __slots__ = ("system", "name", "hash")

    def __init__(self, system: AlgebraicSystem, name: str, hash: str):
        self.system, self.name, self.hash = system, name, hash


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise PresentationError(f"{name} must be a JSON object")
    return value


def _convert(convert, value, path: str):
    """convert(value); a value it cannot take is an input error naming path."""
    try:
        return convert(value)
    except (TypeError, ValueError, ArithmeticError):
        raise PresentationError(f"field {path!r} cannot hold {value!r}") from None


def _list(value) -> list:
    """A JSON array as it is; any other value (a string above all, which
    list() would split into characters) is refused."""
    if type(value) is not list:
        raise TypeError("not a JSON array")
    return value


def _schema(data: dict):
    """data's schema when it is absent or a JSON integer; a bool, a float or
    a string is refused, though True == 1.0 == 1 in Python."""
    schema = data.get("schema")
    if "schema" in data and type(schema) is not int:
        raise PresentationError(f"field 'schema' cannot hold {schema!r}")
    return schema


# An integer written in a flag: ASCII decimal digits, as int() reads them
# less its digit separators ("1_0" is 10) and non-ASCII digits.
INTEGER_TEXT = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def integer(value, path: str) -> int:
    """A JSON integer, or a string of ASCII decimal digits such as a flag's,
    as an int.  A bool, a float (even 2.0) or any other text is an input
    error naming path, never truncated."""
    if type(value) is int:
        return value
    if type(value) is str and INTEGER_TEXT.fullmatch(value):
        return int(value)
    raise PresentationError(f"field {path!r} cannot hold {value!r}")


def _field(block: dict, path: str, convert=None):
    """block[key] for the last key of a dotted path such as "group.d",
    through convert if given; a missing key is an input error naming path."""
    key = path.rpartition(".")[2]
    if key not in block:
        raise PresentationError(f"missing field {path!r}")
    return block[key] if convert is None else _convert(convert, block[key], path)


def _var_index(name: str) -> int:
    if not name.startswith("u") or not name[1:].isdigit():
        raise PresentationError(f"bad variable name {name!r}")
    return int(name[1:]) - 1


def parse_system(data: dict) -> LoadedSystem:
    _object(data, "presentation")
    schema = _schema(data)
    if schema != SCHEMA_VERSION:
        raise PresentationError(f"unsupported schema {schema!r} (expected {SCHEMA_VERSION})")
    try:
        group_block = _object(data["group"], "group")
        module_block = _object(data["module"], "module")
    except KeyError as e:
        raise PresentationError(f"missing block {e.args[0]!r}") from None
    kind = group_block.get("kind")
    if kind == "free_abelian":
        group = free_abelian(integer(_field(group_block, "group.d"), "group.d"))
    elif kind == "rational_vector":
        group = rational_vector(integer(_field(group_block, "group.d"), "group.d"))
    elif kind == "positive_rationals":
        # "all" declares the whole group, generated by every prime.  A list
        # gives one free generator per entry, so its entries must be
        # pairwise coprime and above 1, as distinct primes are (a gcd test,
        # where a primality test by trial division could run for minutes).
        primes = _field(group_block, "group.primes")
        if primes != "all":
            primes = [integer(p, "group.primes") for p in _convert(_list, primes, "group.primes")]
            for i, p in enumerate(primes):
                if p < 2 or any(gcd(p, q) > 1 for q in primes[:i]):
                    raise PresentationError(f"field 'group.primes' cannot hold {p!r}")
        group = positive_rationals(None if primes == "all" else primes)
    else:
        raise PresentationError(f"unknown group kind {kind!r}")
    d = group.rank
    mtype = module_block.get("type")
    if group.primes is None and mtype != "rational_dual":
        raise PresentationError(
            "field 'group.primes' cannot hold 'all' here: only the rational dual "
            "takes the whole group")
    if mtype == "char_p":
        p = integer(_field(module_block, "module.characteristic"), "module.characteristic")
        dom = GF(p)
        gens = []
        for text in _convert(_list, module_block.get("generators", []), "module.generators"):
            try:
                gens.append(LaurentPoly.parse(text, d, dom))
            except ParseError as e:
                raise PresentationError(f"generator {text!r}: {e}") from None
        engine = module_block.get("engine", "groebner")
        substitution = None
        if isinstance(engine, dict):
            sub_block = engine.get("substitution")
            if sub_block is None:
                raise PresentationError("engine object must carry a substitution map")
            substitution = {}
            for var, text in _object(sub_block, "module.engine.substitution").items():
                substitution[_var_index(var)] = LaurentPoly.parse(text, d, dom)
            engine = "substitution"
        # The ideal's own refusals (such as a characteristic over 2^31) come
        # before these two; with no hint, building it tests no membership.
        module = CharPModule(IdealPresentation(gens, p, d=d, substitution=substitution))
        if engine not in ("groebner", "substitution"):
            raise PresentationError(f"unknown engine {engine!r}")
        if engine == "substitution" and not substitution:
            raise PresentationError("substitution engine requires a substitution map")
    elif mtype == "evaluation":
        field = NumberField([_convert(Fraction, c, "module.modulus")
                             for c in _field(module_block, "module.modulus", _list)])
        level = integer(module_block.get("level", 1), "module.level")
        assignment = {}
        block = _object(_field(module_block, "module.assignment"), "module.assignment")
        for var, coeffs in block.items():
            path = f"module.assignment.{var}"
            assignment[_var_index(var)] = field.element(
                [_convert(Fraction, c, path) for c in _convert(_list, coeffs, path)])
        module = EvaluationModule.make(field, assignment, level)
    elif mtype == "rational_dual":
        module = RationalDualModule()
    else:
        raise PresentationError(f"unknown module type {mtype!r}")
    name = data.get("name", "")
    # Only the semantically meaningful fields are hashed.
    return LoadedSystem(
        system=AlgebraicSystem(group=group, module=module, name=name), name=name,
        hash=system_hash({key: data[key] for key in ("schema", "group", "module")}),
    )


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise PresentationError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except OSError as e:
        raise PresentationError(f"{path}: {e}") from None


def load_system(path: str) -> LoadedSystem:
    return parse_system(_read_json(path))


# -- certificate (de)serialization -------------------------------------------

def _frac_str(x) -> str:
    return str(Fraction(x))


def _encode_coefficient(a) -> object:
    if isinstance(a, LaurentPoly):
        return {"poly": a.to_text()}
    if isinstance(a, FieldElement):
        return {"field": [_frac_str(c) for c in a.coeffs]}
    return _frac_str(a)


def _encode_gamma(g) -> object:
    if isinstance(g, (tuple, list)):
        return [_frac_str(x) for x in g]
    return _frac_str(g)


def certificate_to_dict(cert: NonMixingCertificate, sys_hash: str = "") -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "non_mixing_certificate",
        "system_hash": sys_hash,
        "order": cert.order,
        "grade": cert.grade,
        "family": cert.family.to_json(),
        "shape": [_encode_gamma(g) for g in cert.shape],
        "coefficients": [_encode_coefficient(a) for a in cert.coefficients],
        "transcript": [[int(n), int(b)] for n, b in cert.transcript],
    }


def certificate_from_dict(data: dict, system: AlgebraicSystem) -> NonMixingCertificate:
    """Decode a certificate for the system.  Whether its parts agree with
    each other and with the system is for `verify_certificate` to decide."""
    data = _object(data, "a certificate")
    if data.get("kind") != "non_mixing_certificate":
        raise PresentationError("not a certificate file")
    if _schema(data) != SCHEMA_VERSION:
        raise PresentationError(f"unsupported certificate schema {data.get('schema')!r}")
    fam_block = _object(_field(data, "family"), "family")
    fkind = _field(fam_block, "family.kind")
    family = FAMILIES.get(fkind) if isinstance(fkind, str) else None
    if family is None:
        raise PresentationError(f"unknown dilation family {fkind!r}")
    family = family.from_json(fam_block)
    shape = tuple(_convert(expvec if isinstance(g, list) else rational, g, "shape")
                  for g in _field(data, "shape", _list))
    # Each coefficient in a form the module reads: {"poly": text}, parsed once
    # per distinct text, {"field": [...]} in a power basis, or a rational.
    module, polys, coefficients = system.module, {}, []
    for enc in _field(data, "coefficients", _list):
        block = enc if isinstance(enc, dict) else {}
        if "poly" in block and "polynomial" not in module.coefficient_forms:
            raise PresentationError("polynomial coefficient for a non-CharP system")
        if "field" in block and "power_basis" not in module.coefficient_forms:
            raise PresentationError("field coefficient for a non-evaluation system")
        if "polynomial" in module.coefficient_forms:
            if not isinstance(block.get("poly"), str):
                raise PresentationError(f"field 'coefficients' cannot hold {enc!r}")
            if block["poly"] not in polys:
                polys[block["poly"]] = module.element(block["poly"])
            coefficients.append(polys[block["poly"]])
        else:
            coefficients.append(module.element(
                [_convert(Fraction, c, "coefficients") for c in _field(block, "field", _list)]
                if "field" in block else _convert(rational, enc, "coefficients")))
    transcript = []
    for entry in _field(data, "transcript", _list):
        if not isinstance(entry, list) or len(entry) != 2:
            raise PresentationError(f"field 'transcript' cannot hold {entry!r}")
        transcript.append(tuple(integer(x, "transcript") for x in entry))
    return NonMixingCertificate(
        order=integer(_field(data, "order"), "order"),
        shape=shape,
        coefficients=tuple(coefficients),
        family=family,
        transcript=tuple(transcript),
        grade=data.get("grade", "evidence"),
    )


def load_certificate(path: str) -> dict:
    return _object(_read_json(path), f"{path}: a certificate")
