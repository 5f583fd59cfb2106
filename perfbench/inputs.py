"""Seeded inputs for the benchmark workloads.

Everything the program reads in the `search`, `replay` and `measure`
workloads beyond the shipped `presentations/` is written here from a seed:
two generated presentations (the three-dot system over F_3 and an
evaluation system at the Mersenne prime 2^61 - 1, neither of which depends
on the seed), and the `replay` certificate set.  The same seed gives the
same files byte for byte.  Nothing here imports the program: certificates
are built from the module arithmetic they assert, and the hash that binds
them to a presentation is recomputed from its canonical JSON.

Rebuild the inputs of a seed with

    python3 perfbench/inputs.py --seed 7 --out .bench_work/inputs-7
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from oracles import PrincipalOracle, parse_poly

MERSENNE61 = (1 << 61) - 1

LEDRAPPIER_F3 = {
    "schema": 1,
    "name": "ledrappier-f3",
    "notes": "the three-dot relation 1 + u1 + u2 over F_3",
    "group": {"kind": "free_abelian", "d": 2},
    "module": {
        "type": "char_p",
        "characteristic": 3,
        "generators": ["1 + u1 + u2"],
        "engine": "groebner",
    },
}

LEDRAPPIER_F3_SUBST = {
    "schema": 1,
    "name": "ledrappier-f3-subst",
    "notes": "the same module, membership via u2 -> -1 - u1",
    "group": {"kind": "free_abelian", "d": 2},
    "module": {
        "type": "char_p",
        "characteristic": 3,
        "generators": ["1 + u1 + u2"],
        "engine": {"substitution": {"u2": "2 + 2 * u1"}},
    },
}

MERSENNE_EVAL = {
    "schema": 1,
    "name": "mersenne61",
    "notes": "u1 evaluated at the prime 2^61 - 1 in Q",
    "group": {"kind": "free_abelian", "d": 1},
    "module": {
        "type": "evaluation",
        "modulus": ["-1", "1"],
        "assignment": {"u1": [str(MERSENNE61)]},
        "level": 1,
    },
}

GENERATED_PRESENTATIONS = {
    "ledrappier_f3.json": LEDRAPPIER_F3,
    "ledrappier_f3_substitution.json": LEDRAPPIER_F3_SUBST,
    "mersenne61.json": MERSENNE_EVAL,
}

# Shipped presentations the certificates are issued for, by (p, engine).
SHIPPED_CHARP = {
    (2, "groebner"): "presentations/ledrappier.json",
    (2, "substitution"): "presentations/ledrappier_substitution.json",
}
GENERATED_CHARP = {
    (3, "groebner"): "ledrappier_f3.json",
    (3, "substitution"): "ledrappier_f3_substitution.json",
}

# The replay mix: base certificates per kind, before tampered copies.  The
# sizes that set a certificate's cost (transcript depth, number of terms) are
# dealt out evenly, so the seed changes the polynomials but not the mix.
PRIME_POWER = {2: 48, 3: 30}   # each also issued for the substitution engine
EXPLICIT = {2: 40, 3: 24}
RATIONAL_DUAL = 10
EVALUATION = 10
TAMPER_EVERY = 4               # one tampered copy per four base certificates
MAX_K = {2: 5, 3: 3}       # largest prime-power exponent in a transcript


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def system_hash(presentation: dict) -> str:
    """sha256 of the canonical group/module blocks, as certificates carry it."""
    core = {k: presentation[k] for k in ("schema", "group", "module")}
    return hashlib.sha256(canonical_json(core).encode()).hexdigest()


# -- sparse Laurent polynomials in u1, u2 over F_p, as {(a, b): c} ------------

THREE_DOT = {(0, 0): 1, (1, 0): 1, (0, 1): 1}


def poly_mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            key = (a1 + a2, b1 + b2)
            out[key] = (out.get(key, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def poly_text(f: dict) -> str:
    """The program's text form: `c * u1^a * u2^b` terms joined by ` + `."""
    parts = []
    for (a, b), c in sorted(f.items()):
        factors = [f"u{i + 1}" if e == 1 else f"u{i + 1}^{e}"
                   for i, e in enumerate((a, b)) if e]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append(" * ".join(factors))
        else:
            parts.append(" * ".join([str(c)] + factors))
    return " + ".join(parts) if parts else "0"


def random_poly(rng: random.Random, p: int, terms: int, lo: int, hi: int) -> dict:
    f: dict = {}
    while len(f) < terms:
        f[(rng.randint(lo, hi), rng.randint(lo, hi))] = rng.randrange(1, p)
    return f


def _cert(order, family, shape, coefficients, transcript, grade, sys_hash) -> dict:
    return {
        "schema": 1,
        "kind": "non_mixing_certificate",
        "system_hash": sys_hash,
        "order": order,
        "grade": grade,
        "family": family,
        "shape": shape,
        "coefficients": coefficients,
        "transcript": [[n, 1] for n in transcript],
    }


# -- the replay certificate set ---------------------------------------------

def _charp_cert(p, f, coeff_poly, family, dilations, grade, sys_hash):
    """Shape = support of f; coefficient s is f's coefficient times coeff_poly."""
    support = sorted(f)
    coefficients = [{"poly": poly_text({m: c * f[q] % p for m, c in coeff_poly.items()})}
                    for q in support]
    shape = [[str(a), str(b)] for a, b in support]
    return _cert(len(support), family, shape, coefficients, dilations, grade, sys_hash)


def _tamper_charp(rng: random.Random, cert: dict, p: int) -> dict:
    """Add a monomial unit to one coefficient: the sum gains a unit, so no
    transcript dilation stays in the ideal.  A draw that would make the
    coefficient itself zero in the module is drawn again."""
    oracle = PrincipalOracle(p)
    while True:
        out = json.loads(json.dumps(cert))
        s = rng.randrange(len(out["coefficients"]))
        w = rng.choice([(1, 0), (0, 1), (1, 1)])
        text = out["coefficients"][s]["poly"] + " + " + poly_text({w: rng.randrange(1, p)})
        if not oracle.is_member(parse_poly(text, p)):
            out["coefficients"][s]["poly"] = text
            return out


def replay_certificates(seed: int, hashes: dict):
    """The certificate set: (certificate dict, presentation key, status, kind)."""
    rng = random.Random(seed)
    base = []
    for p, count in PRIME_POWER.items():
        depths = range(2, MAX_K[p] + 1)
        for j in range(count):
            b = random_poly(rng, p, 1 + j // len(depths) % 3, -1, 2)
            f = poly_mul(b, THREE_DOT, p)
            dilations = [p ** i for i in range(depths[j % len(depths)] + 1)]
            for engine in ("groebner", "substitution"):
                cert = _charp_cert(p, f, {(0, 0): 1}, {"kind": "prime_power", "p": p},
                                   dilations, "proof", hashes[(p, engine)])
                base.append((cert, (p, engine), "prime_power", p))
    for p, count in EXPLICIT.items():
        for j in range(count):
            b = random_poly(rng, p, 1 + j % 2, 0, 2)
            f = poly_mul(b, THREE_DOT, p)
            # A one- or two-term multiplier is never in (1 + u1 + u2): a
            # monomial is a unit, and u^a (1 + u1)^b = c forces a = b = 0.
            h = random_poly(rng, p, 1 + j // 2 % 2, 0, 1)
            top = 1 + j // 4 % MAX_K[p]
            lower = rng.sample(range(top), 1 + j // 2 % 2 if top > 1 else 1)
            dilations = sorted(p ** i for i in lower + [top])
            engine = ("groebner", "substitution")[j % 2]
            cert = _charp_cert(p, f, h, {"kind": "explicit_list", "dilations": dilations},
                               dilations, "evidence", hashes[(p, engine)])
            base.append((cert, (p, engine), "explicit_list", p))
    for j in range(RATIONAL_DUAL):
        c = rng.choice([1, 2, 3, 5, 7]) * rng.choice([1, -1])
        n_max = 40 + 12 * j
        cert = _cert(3, {"kind": "consecutive_ratio"}, ["1", "2", "1"],
                     [str(c), str(-c), str(c)], list(range(2, n_max + 1)), "proof",
                     hashes["rational_dual"])
        base.append((cert, "rational_dual", "consecutive_ratio", 0))
    for _ in range(EVALUATION):
        points = rng.sample([(a, b) for a in range(-2, 3) for b in range(-2, 3)], 3)
        units = [Fraction(2) ** a * Fraction(3) ** b for a, b in points]
        a1, a2 = rng.choice([1, 2, 3]), rng.choice([-1, 1, 2])
        if a1 * units[0] + a2 * units[1] == 0:
            a2 = 2  # the units are positive, so the third coefficient is nonzero
        a3 = -(a1 * units[0] + a2 * units[1]) / units[2]
        cert = _cert(3, {"kind": "explicit_list", "dilations": [1]},
                     [[str(a), str(b)] for a, b in points],
                     [str(a1), str(a2), str(a3)], [1], "evidence", hashes["times2times3"])
        base.append((cert, "times2times3", "evaluation", 0))
    rng.shuffle(base)
    out = []
    for i, (cert, key, kind, p) in enumerate(base):
        out.append((cert, key, "PASS", kind))
        if i % TAMPER_EVERY == 0:
            if p:
                bad = _tamper_charp(rng, cert, p)
            else:
                bad = json.loads(json.dumps(cert))
                s = rng.randrange(3)
                value = Fraction(bad["coefficients"][s]) + 1
                bad["coefficients"][s] = str(value or 2)
            out.append((bad, key, "FAIL", kind))
    return out


def make_inputs(root: Path, out: Path, seed: int, with_certificates: bool = True):
    """The generated presentations (and certificates) of a seed, in memory.

    Returns (files, manifest): files maps each path under out to its text;
    the replay manifest has one entry per certificate with the presentation
    it is issued for and the status it was built with.
    """
    files = {}
    presentations = {}
    for name, body in GENERATED_PRESENTATIONS.items():
        files[out / name] = json.dumps(body, indent=2) + "\n"
        presentations[name] = (str(out / name), body)
    if not with_certificates:
        return files, []
    pres_paths = {}
    hashes = {}
    for key, rel in SHIPPED_CHARP.items():
        pres_paths[key] = str(root / rel)
        hashes[key] = system_hash(json.loads((root / rel).read_text()))
    for key, name in GENERATED_CHARP.items():
        pres_paths[key] = presentations[name][0]
        hashes[key] = system_hash(presentations[name][1])
    for key, rel in (("rational_dual", "presentations/rational_dual.json"),
                     ("times2times3", "presentations/times2times3.json")):
        pres_paths[key] = str(root / rel)
        hashes[key] = system_hash(json.loads((root / rel).read_text()))
    manifest = []
    for i, (cert, key, status, kind) in enumerate(replay_certificates(seed, hashes)):
        path = out / "certificates" / f"{i:04d}-{kind}.cert.json"
        files[path] = canonical_json(cert) + "\n"
        manifest.append({"certificate": str(path), "presentation": pres_paths[key],
                         "key": key, "status": status, "kind": kind, "data": cert})
    return files, manifest


def write_files(files: dict):
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    files, manifest = make_inputs(root, Path(args.out), args.seed)
    write_files(files)
    statuses = [m["status"] for m in manifest]
    print(f"{len(manifest)} certificates ({statuses.count('FAIL')} tampered) "
          f"and {len(GENERATED_PRESENTATIONS)} presentations in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
