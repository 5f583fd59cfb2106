"""System presentation files, certificate files, and canonical hashing.

Presentation files are JSON with exact rationals as strings and a versioned
schema field.  A canonical-serialization digest binds certificates to the
presentation they were produced from, so a certificate can never be verified
against the wrong ideal.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .ideals import IdealPresentation
from .mixing import (
    CertificateError,
    DilationFamily,
    NonMixingCertificate,
    check_certificate,
)
from .numfield import FieldElement, NumberField
from .ring import GF, LaurentPoly, ParseError, expvec
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


@dataclass
class LoadedSystem:
    system: AlgebraicSystem
    name: str
    notes: str
    normalized: dict
    hash: str


def _var_index(name: str) -> int:
    if not name.startswith("u") or not name[1:].isdigit():
        raise PresentationError(f"bad variable name {name!r}")
    return int(name[1:]) - 1


def parse_system(data: dict) -> LoadedSystem:
    if not isinstance(data, dict):
        raise PresentationError("presentation must be a JSON object")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise PresentationError(f"unsupported schema {schema!r} (expected {SCHEMA_VERSION})")
    try:
        group_block = data["group"]
        module_block = data["module"]
    except KeyError as e:
        raise PresentationError(f"missing block {e.args[0]!r}") from None
    kind = group_block.get("kind")
    if kind == "free_abelian":
        group = free_abelian(int(group_block["d"]))
    elif kind == "rational_vector":
        group = rational_vector(int(group_block["d"]))
    elif kind == "positive_rationals":
        group = positive_rationals([int(p) for p in group_block["primes"]])
    else:
        raise PresentationError(f"unknown group kind {kind!r}")
    d = group.rank
    mtype = module_block.get("type")
    if mtype == "char_p":
        p = int(module_block["characteristic"])
        dom = GF(p)
        gens = []
        for text in module_block.get("generators", []):
            try:
                gens.append(LaurentPoly.parse(text, d, dom))
            except ParseError as e:
                raise PresentationError(f"generator {text!r}: {e}") from None
        engine = module_block.get("engine", "groebner")
        substitution = None
        engine_name = engine
        if isinstance(engine, dict):
            sub_block = engine.get("substitution")
            if sub_block is None:
                raise PresentationError("engine object must carry a substitution map")
            substitution = {}
            for var, text in sub_block.items():
                substitution[_var_index(var)] = LaurentPoly.parse(text, d, dom)
            engine_name = "substitution"
        ideal = IdealPresentation(
            gens, p, d=d, engine=engine_name, substitution=substitution
        )
        module = CharPModule(ideal)
    elif mtype == "evaluation":
        field = NumberField([Fraction(c) for c in module_block["modulus"]])
        level = int(module_block.get("level", 1))
        assignment = {}
        for var, coeffs in module_block["assignment"].items():
            assignment[_var_index(var)] = field.element([Fraction(c) for c in coeffs])
        module = EvaluationModule.make(field, assignment, level)
    elif mtype == "rational_dual":
        module = RationalDualModule()
    else:
        raise PresentationError(f"unknown module type {mtype!r}")
    name = data.get("name", "")
    notes = data.get("notes", "")
    normalized = _normalize(data)
    system = AlgebraicSystem(group=group, module=module, name=name)
    return LoadedSystem(
        system=system, name=name, notes=notes,
        normalized=normalized, hash=system_hash(normalized),
    )


def _normalize(data: dict) -> dict:
    # Keep only semantically meaningful fields in the hashed form.
    out = {"schema": data["schema"], "group": data["group"], "module": data["module"]}
    return json.loads(canonical_json(out))


def load_system(path: str) -> LoadedSystem:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise PresentationError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except OSError as e:
        raise PresentationError(f"{path}: {e}") from None
    return parse_system(data)


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
    fam: Dict[str, object] = {"kind": cert.family.kind}
    if cert.family.kind == "prime_power":
        fam["p"] = cert.family.p
    elif cert.family.kind == "explicit_list":
        fam["dilations"] = list(cert.family.dilations)
    return {
        "schema": SCHEMA_VERSION,
        "kind": "non_mixing_certificate",
        "system_hash": sys_hash or cert.system_hash,
        "order": cert.order,
        "grade": cert.grade,
        "family": fam,
        "shape": [_encode_gamma(g) for g in cert.shape],
        "coefficients": [_encode_coefficient(a) for a in cert.coefficients],
        "transcript": [[int(n), int(b)] for n, b in cert.transcript],
    }


def certificate_from_dict(data: dict, system: AlgebraicSystem) -> NonMixingCertificate:
    if data.get("kind") != "non_mixing_certificate":
        raise PresentationError("not a certificate file")
    if data.get("schema") != SCHEMA_VERSION:
        raise PresentationError(f"unsupported certificate schema {data.get('schema')!r}")
    fam_block = data["family"]
    fkind = fam_block["kind"]
    if fkind == "prime_power":
        family = DilationFamily("prime_power", p=int(fam_block["p"]))
    elif fkind == "explicit_list":
        family = DilationFamily(
            "explicit_list", dilations=tuple(int(n) for n in fam_block["dilations"])
        )
    elif fkind == "consecutive_ratio":
        family = DilationFamily("consecutive_ratio")
    else:
        raise PresentationError(f"unknown dilation family {fkind!r}")
    shape = tuple(
        expvec(g) if isinstance(g, list) else Fraction(g)
        for g in data["shape"]
    )
    m = system.module
    # A lattice family dilates exponent vectors; (1, n, n-1) shifts by rationals.
    if fkind == "consecutive_ratio":
        if isinstance(m, CharPModule):
            raise PresentationError(
                "a consecutive_ratio certificate shifts by rationals, not exponent vectors")
    elif isinstance(m, RationalDualModule):
        raise PresentationError(
            f"the rational dual takes consecutive_ratio certificates, not {fkind}")
    elif not all(isinstance(g, tuple) for g in shape):
        raise PresentationError(f"a {fkind} certificate needs exponent-vector shape points")
    elif isinstance(m, CharPModule) and any(type(e) is not int for g in shape for e in g):
        # Laurent polynomials over F_p have integer exponents only.
        raise PresentationError("a characteristic-p certificate needs integer shape points")
    coefficients = []
    for enc in data["coefficients"]:
        if isinstance(enc, dict) and "poly" in enc:
            if not isinstance(m, CharPModule):
                raise PresentationError("polynomial coefficient for a non-CharP system")
            ideal = m.ideal
            coefficients.append(
                LaurentPoly.parse(enc["poly"], ideal.d, GF(ideal.characteristic))
            )
        elif isinstance(enc, dict) and "field" in enc:
            if not isinstance(m, EvaluationModule):
                raise PresentationError("field coefficient for a non-evaluation system")
            coefficients.append(m.field.element([Fraction(c) for c in enc["field"]]))
        else:
            if isinstance(m, EvaluationModule):
                coefficients.append(m.field.from_rational(Fraction(enc)))
            else:
                coefficients.append(Fraction(enc))
    cert = NonMixingCertificate(
        order=int(data["order"]),
        shape=shape,
        coefficients=tuple(coefficients),
        family=family,
        transcript=tuple((int(n), int(b)) for n, b in data["transcript"]),
        grade=data.get("grade", "evidence"),
        system_hash=data.get("system_hash", ""),
    )
    try:
        check_certificate(cert)
    except CertificateError as e:
        raise PresentationError(str(e)) from None
    return cert


def load_certificate(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise PresentationError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    except OSError as e:
        raise PresentationError(f"{path}: {e}") from None
