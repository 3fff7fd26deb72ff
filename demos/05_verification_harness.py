# The verification harness
# -------------------------
# Every structural statement the library relies on is re-checked against
# every labeled pre-order up to a size cap, plus the sampled symbolic
# models. The same machinery backs the `magmas verify` command.

from magmas import SuiteConfig, render_report, replay, run_suite
from magmas.preorder import PreOrder

cfg = SuiteConfig(max_size=3)
report = run_suite(cfg)
print(f"{sum(not r.skipped for r in report.results)} suites,",
      "all pass" if report.passed else "FAILURES")
for r in report.results[:6]:
    print(f"  {r.suite_id:36} models={r.models_checked}")
print("  ...")

# Reports are deterministic apart from wall time, so they can be diffed
# and kept as golden files.
text = render_report(report, timing=False)
print("report head:")
print("\n".join(text.splitlines()[:12]))


# What a failure looks like: corrupt one model behind the harness's back.
# The discrete 3-antichain becomes an unclosed 3-cycle, which breaks the
# minimality characterizations.
def break_closure(p):
    if p.n == 3 and all(p.pred[b] == 1 << b for b in range(3)):
        a, b, c = 1, 2, 4
        return PreOrder(p.labels, (a | c, a | b, b | c))
    return p


bad = run_suite(SuiteConfig(suites=("minimal-open-characterizations",),
                            max_size=3), _model_hook=break_closure)
cx = bad.failures[0]
print("\ninjected fault caught on", cx.model)
print("witness:", cx.witness)
print("as feedable input:")
print(cx.model_text)

# Counterexamples replay exactly: the raw relation rows ride along, so
# re-closing cannot mask the fault, and so do the seed and depths, so the
# check draws the same instances. False = the check still fails.
print("replay verdict:", replay(cx.to_blob()))
