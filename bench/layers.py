"""Per-layer metrics, read from the traces that shim.py writes.

Each qkring module is a layer.  Every metric names, before any
measurement, the end-to-end metric it should move and the workloads on
which it should not change; the traced run prints that prediction next
to the value.
"""

from __future__ import annotations

from dataclasses import dataclass

# Layers on no workload's measured path, left unwrapped on purpose.
UNMEASURED = ("cohomology", "report")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric this one should move
    unchanged: tuple = ()  # workloads where no change is predicted


M = LayerMetric
NOT_CERTIFY = ("presentation", "truncation")
ONLY_TRUNCATION = ("certify", "presentation")
METRICS = (
    M("trace.overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s"),
    # intmath: CyclotomicInt arithmetic of the character oracle (ROADMAP item 4)
    M("intmath.self_s", "s", "lower", "certify.wall_s", NOT_CERTIFY),
    M("intmath.cyclo_mul.calls", "count", "lower", "certify.wall_s", NOT_CERTIFY),
    M("intmath.cyclo_add.calls", "count", "lower", "certify.wall_s", NOT_CERTIFY),
    M("intmath.cyclo_conj.calls", "count", "lower", "certify.wall_s", NOT_CERTIFY),
    M("intmath.intpoly_compose.calls", "count", "lower", "certify.wall_s", NOT_CERTIFY),
    # repring: inner products (item 4) and the fold-rule product (item 3)
    M("repring.self_s", "s", "lower", "certify.wall_s, presentation.wall_s"),
    M("repring.inner_product.calls", "count", "lower", "certify.wall_s", NOT_CERTIFY),
    M("repring.inner_product.s", "s", "lower", "certify.wall_s", NOT_CERTIFY),
    M("repring.multiply.calls", "count", "lower",
      "presentation.wall_s; small shares of certify.wall_s, truncation.wall_s"),
    M("repring.multiply.s", "s", "lower",
      "presentation.wall_s; small shares of certify.wall_s, truncation.wall_s"),
    M("repring.character_table.hit_ratio", "ratio", "higher", "certify.wall_s",
      NOT_CERTIFY),
    # kring: rewriting, normal-form products, the embedding (item 3)
    M("kring.self_s", "s", "lower", "presentation.wall_s, then certify.wall_s",
      ("truncation",)),
    M("kring.rewrite.calls", "count", "lower", "presentation.wall_s, then certify.wall_s",
      ("truncation",)),
    M("kring.rewrite.s", "s", "lower", "presentation.wall_s, then certify.wall_s",
      ("truncation",)),
    M("kring.rewrite.steps", "count", "lower", "presentation.wall_s, then certify.wall_s",
      ("truncation",)),
    M("kring.rule_match_ratio", "ratio", "higher",
      "presentation.wall_s, then certify.wall_s", ("truncation",)),
    M("kring.multiply_nf.calls", "count", "lower",
      "presentation.wall_s, then certify.wall_s", ("truncation",)),
    M("kring.embed_to_R.calls", "count", "lower",
      "presentation.wall_s, then certify.wall_s", ("truncation",)),
    M("kring.embed_to_R.s", "s", "lower", "presentation.wall_s, then certify.wall_s",
      ("truncation",)),
    M("kring.relations_for.hit_ratio", "ratio", "higher",
      "presentation.wall_s, then certify.wall_s", ("truncation",)),
    # lens: restriction and relation images
    M("lens.self_s", "s", "lower", "presentation.wall_s", ("truncation",)),
    M("lens.lens_multiply.calls", "count", "lower", "presentation.wall_s", ("truncation",)),
    M("lens.lens_multiply.s", "s", "lower", "presentation.wall_s", ("truncation",)),
    M("lens.restrict.calls", "count", "lower", "presentation.wall_s", ("truncation",)),
    # intmatrix: Smith normal form of the truncation lattices (item 2)
    M("intmatrix.smith_normal_form.calls", "count", "lower",
      "truncation.wall_s, truncation.peak_rss_mb", ONLY_TRUNCATION),
    M("intmatrix.smith_normal_form.s", "s", "lower",
      "truncation.wall_s, truncation.peak_rss_mb", ONLY_TRUNCATION),
    M("intmatrix.smith_normal_form.max_bits", "bits", "lower",
      "truncation.wall_s, truncation.peak_rss_mb", ONLY_TRUNCATION),
    # determinant runs only in basis_change_matrix, never on the truncation path
    M("intmatrix.determinant.calls", "count", "lower",
      "small shares of presentation.wall_s and certify.wall_s", ("truncation",)),
    M("intmatrix.determinant.s", "s", "lower",
      "small shares of presentation.wall_s and certify.wall_s", ("truncation",)),
    # truncation: the quotient lattices and element orders
    M("truncation.truncated_quotient.s", "s", "lower", "truncation.wall_s",
      ONLY_TRUNCATION),
    M("truncation.order_of.s", "s", "lower", "truncation.wall_s", ONLY_TRUNCATION),
    # adams: psi polynomials
    M("adams.self_s", "s", "lower", "small shares of certify.wall_s, presentation.wall_s",
      ("truncation",)),
    M("adams.psi_series.calls", "count", "lower",
      "small shares of certify.wall_s, presentation.wall_s", ("truncation",)),
    M("adams.psi_series.s", "s", "lower",
      "small shares of certify.wall_s, presentation.wall_s", ("truncation",)),
    M("adams.psi_oracle.s", "s", "lower", "small share of certify.wall_s", NOT_CERTIFY),
    # cli: argument parsing, report merging and output formatting
    M("cli.self_s", "s", "lower", "every workload's short operations; import is setup_s",
      ("presentation",)),
)
del M


class PassTrace:
    """The traces of one traced pass, one per operation, summed."""

    def __init__(self, traces):
        self.calls = {}
        self.seconds = {}
        self.self_s = {}
        self.cache = {}
        self.snf_max_bits = 0
        for trace in traces:
            self._add(trace)

    def _add(self, trace):
        spans = {s[0]: s for s in trace["spans"]}
        for span_id, parent, name, start, end, self_s in trace["spans"]:
            layer = name.split(".")[0]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[layer] = self.self_s.get(layer, 0.0) + self_s
            # inclusive time counts a recursive call once, at its outermost span
            while parent is not None and spans[parent][2] != name:
                parent = spans[parent][1]
            if parent is None:
                self.seconds[name] = self.seconds.get(name, 0.0) + (end - start)
        for name, (calls, total_s, self_s) in trace["leaves"].items():
            layer = name.split(".")[0]
            self.calls[name] = self.calls.get(name, 0) + calls
            self.seconds[name] = self.seconds.get(name, 0.0) + total_s
            self.self_s[layer] = self.self_s.get(layer, 0.0) + self_s
        for name, (hits, misses) in trace["caches"].items():
            old = self.cache.get(name, (0, 0))
            self.cache[name] = (old[0] + hits, old[1] + misses)
        self.snf_max_bits = max(self.snf_max_bits, trace["snf_max_bits"])

    def _ratio(self, cache: str) -> float:
        hits, misses = self.cache.get(cache, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    def value(self, metric: str) -> float:
        """The value of one per-layer metric, except trace.overhead_s."""
        steps = self.calls.get("kring.apply_rule_once", 0)
        if metric == "kring.rewrite.steps":
            return steps
        if metric == "kring.rule_match_ratio":
            attempts = self.calls.get("kring.rule_applies_to", 0)
            return steps / attempts if attempts else 0.0
        if metric == "repring.character_table.hit_ratio":
            return self._ratio("repring._character_table")
        if metric == "kring.relations_for.hit_ratio":
            return self._ratio("kring.relations_for")
        if metric == "intmatrix.smith_normal_form.max_bits":
            return self.snf_max_bits
        key, _, kind = metric.rpartition(".")
        if kind == "self_s":
            return self.self_s.get(key, 0.0)
        if kind == "calls":
            return self.calls.get(key, 0)
        if kind == "s":
            return self.seconds.get(key, 0.0)
        raise KeyError(metric)
