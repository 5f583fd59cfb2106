"""Per-layer spans for the traced benchmark run.

The program has no tracing of its own, so the spans are recorded from here:
`Tracer.install` swaps each wrapped function, where the program looks it
up, for a wrapper that records a span (name, start, end, parent span,
operation id) around the call; `uninstall` puts the originals back.  Spans
stay in memory until the run writes them out.  The layers are the
program's modules; `ring` arithmetic is counted inside the `ideals` and
`systems` spans that call it.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

import mixlab.cli as cli
import mixlab.ideals as ideals
import mixlab.linalg as linalg
import mixlab.mixing as mixing
import mixlab.numfield as numfield
import mixlab.presentation as presentation
import mixlab.simulate as simulate
import mixlab.systems as systems

# Every per-layer metric, with its unit and better direction.
LAYER_METRICS = [
    ("presentation.load_calls", "count", "lower"),
    ("presentation.load_s", "s", "lower"),
    ("presentation.cert_decode_s", "s", "lower"),
    ("presentation.cert_encode_s", "s", "lower"),
    ("ideals.groebner_calls", "count", "lower"),
    ("ideals.groebner_s", "s", "lower"),
    ("ideals.contains_calls", "count", "lower"),
    ("ideals.contains_s", "s", "lower"),
    ("ideals.nf_monomial_calls", "count", "lower"),
    ("ideals.nf_monomial_s", "s", "lower"),
    ("ideals.nf_monomial_reuse", "ratio", "higher"),
    ("linalg.rref_calls", "count", "lower"),
    ("linalg.rref_s", "s", "lower"),
    ("linalg.rref_entries", "count", "lower"),
    ("linalg.nullspace_calls", "count", "lower"),
    ("linalg.nullspace_s", "s", "lower"),
    ("systems.correlation_calls", "count", "lower"),
    ("systems.correlation_s", "s", "lower"),
    ("systems.nonmixing_element_s", "s", "lower"),
    ("mixing.shape_search_s", "s", "lower"),
    ("mixing.shapes_examined", "count", "lower"),
    ("mixing.certificates", "count", "lower"),
    ("mixing.frobenius_s", "s", "lower"),
    ("mixing.verify_calls", "count", "lower"),
    ("mixing.verify_s", "s", "lower"),
    ("mixing.eval_search_s", "s", "lower"),
    ("mixing.uniteq_s", "s", "lower"),
    ("numfield.mul_calls", "count", "lower"),
    ("numfield.pow_calls", "count", "lower"),
    ("numfield.inv_calls", "count", "lower"),
    ("simulate.space_builds", "count", "lower"),
    ("simulate.space_s", "s", "lower"),
    ("simulate.sites_max", "count", "lower"),
    ("simulate.exact_s", "s", "lower"),
    ("simulate.mc_s", "s", "lower"),
    ("simulate.mc_samples", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Spans and counters of the traced rounds of one run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, operation id]
        self.stack = []
        self.op = 0
        self.counts = Counter()
        self.nf_keys = set()
        self.sites_max = 0
        self._saved = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def operation(self, name: str):
        """A span around one benchmark operation (a command or a direct call)."""
        self.op += 1
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr, name, after=None):
        """Wrap owner.attr in a span called name (no span if name is None);
        after(result, args) then records counts from the call."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                index = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(index)
            if after is not None:
                after(result, args)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        c = self.counts
        # Names the CLI imported are looked up in the CLI module; names the
        # program calls across modules are patched where they are imported.
        self._patch(cli, "load_system", "presentation.load")
        self._patch(presentation, "load_system", "presentation.load")
        self._patch(cli, "load_certificate", "presentation.cert_decode")
        self._patch(cli, "certificate_from_dict", "presentation.cert_decode")
        self._patch(cli, "certificate_to_dict", "presentation.cert_encode")
        self._patch(ideals, "_buchberger", "ideals.groebner")
        self._patch(ideals.IdealPresentation, "contains", "ideals.contains")

        def nf_key(_result, args):
            self.nf_keys.add((self.op, id(args[0]), tuple(args[1])))

        self._patch(ideals.IdealPresentation, "normal_form_monomial",
                    "ideals.nf_monomial", nf_key)

        def rref_entries(_result, args):
            rows = args[0]
            c["linalg.rref_entries"] += len(rows) * (len(rows[0]) if len(rows) else 0)

        self._patch(linalg, "rref", "linalg.rref", rref_entries)
        self._patch(linalg, "nullspace", "linalg.nullspace")
        self._patch(systems, "character_correlation", "systems.correlation")
        self._patch(mixing, "character_correlation", "systems.correlation")
        self._patch(cli, "find_nonmixing_element", "systems.nonmixing_element")

        def searched(outcome, _args):
            c["mixing.shapes_examined"] += outcome.region.get("shapes_examined", 0)
            c["mixing.certificates"] += len(outcome.certificates)

        self._patch(cli, "shape_search", "mixing.shape_search", searched)
        self._patch(cli, "evaluation_shape_search", "mixing.eval_search", searched)

        def frobenius(_cert, _args):
            c["mixing.certificates"] += 1

        self._patch(cli, "frobenius_certificate", "mixing.frobenius", frobenius)
        self._patch(cli, "verify_certificate", "mixing.verify")
        self._patch(mixing, "verify_certificate", "mixing.verify")
        self._patch(cli, "enumerate_unit_solutions", "mixing.uniteq")
        for owner, attr, counter in ((numfield.NumberField, "mul", "numfield.mul_calls"),
                                     (numfield.NumberField, "inv", "numfield.inv_calls"),
                                     (numfield.FieldElement, "__pow__", "numfield.pow_calls")):
            self._patch(owner, attr, None,
                        lambda _r, _a, counter=counter: c.update((counter,)))

        def space(_none, args):
            self.sites_max = max(self.sites_max, len(args[0].sites))

        self._patch(simulate.WindowConfigSpace, "__init__", "simulate.space", space)

        def written(path, _args):
            c["cli.bytes_written"] += path.stat().st_size

        self._patch(cli, "_write_certificate", None, written)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round layer figures from the recorded spans and counters.

        A `_s` figure is the time inside spans of that name, not counting a
        span nested in another of the same name; `cli.self_s` is the part of
        command spans that no child span covers.
        """
        calls = Counter()
        inclusive = defaultdict(float)
        child_time = defaultdict(float)
        for i, (name, start, end, parent, _op) in enumerate(self.spans):
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        cli_self = sum(end - start - child_time[i]
                       for i, (name, start, end, _p, _op) in enumerate(self.spans)
                       if name == "cli")
        nf_calls = calls["ideals.nf_monomial"]
        out = {
            "presentation.load_calls": calls["presentation.load"],
            "presentation.load_s": inclusive["presentation.load"],
            "presentation.cert_decode_s": inclusive["presentation.cert_decode"],
            "presentation.cert_encode_s": inclusive["presentation.cert_encode"],
            "ideals.groebner_calls": calls["ideals.groebner"],
            "ideals.groebner_s": inclusive["ideals.groebner"],
            "ideals.contains_calls": calls["ideals.contains"],
            "ideals.contains_s": inclusive["ideals.contains"],
            "ideals.nf_monomial_calls": nf_calls,
            "ideals.nf_monomial_s": inclusive["ideals.nf_monomial"],
            "linalg.rref_calls": calls["linalg.rref"],
            "linalg.rref_s": inclusive["linalg.rref"],
            "linalg.nullspace_calls": calls["linalg.nullspace"],
            "linalg.nullspace_s": inclusive["linalg.nullspace"],
            "systems.correlation_calls": calls["systems.correlation"],
            "systems.correlation_s": inclusive["systems.correlation"],
            "systems.nonmixing_element_s": inclusive["systems.nonmixing_element"],
            "mixing.shape_search_s": inclusive["mixing.shape_search"],
            "mixing.frobenius_s": inclusive["mixing.frobenius"],
            "mixing.verify_calls": calls["mixing.verify"],
            "mixing.verify_s": inclusive["mixing.verify"],
            "mixing.eval_search_s": inclusive["mixing.eval_search"],
            "mixing.uniteq_s": inclusive["mixing.uniteq"],
            "simulate.space_builds": calls["simulate.space"],
            "simulate.space_s": inclusive["simulate.space"],
            "simulate.exact_s": inclusive["simulate.exact"],
            "simulate.mc_s": inclusive["simulate.mc"],
            "cli.self_s": cli_self,
        }
        for key in ("linalg.rref_entries", "mixing.shapes_examined", "mixing.certificates",
                    "numfield.mul_calls", "numfield.pow_calls", "numfield.inv_calls",
                    "simulate.mc_samples", "cli.bytes_written"):
            out[key] = self.counts[key]
        out = {k: v / rounds for k, v in out.items()}
        out["ideals.nf_monomial_reuse"] = 1 - len(self.nf_keys) / nf_calls if nf_calls else 0.0
        out["simulate.sites_max"] = self.sites_max
        return out

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, operation."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

