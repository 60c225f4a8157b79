"""Readable tables for run.py: the end-to-end metrics, the per-layer
metrics of a traced run, and the traced run set against the breakdown that
ROADMAP.md measured by hand."""

# ROADMAP.md "Baseline", hand-measured on other shapes: picard at N=4096,
# K=256, T=4 (14.2 s per solve); bernstein per trial of ten bins (67.5 s);
# CLI kinds warm.
# Rows: (what, "self" metric or "incl" span name, key, ROADMAP share).
ROADMAP_ROWS = {
    "picard": [
        ("xs_report with vp_norm", "incl", "norms.xs_report", 0.85),
        ("increment_tables", "self", "variation.increment_tables_s", 5.1 / 14.2),
        ("xs_report body", "self", "norms.xs_report_s", 4.8 / 14.2),
        ("vp_norm DP loop", "self", "variation.vp_norm_s", 1.7 / 14.2),
    ],
    "bernstein": [
        ("band symbols (bump, _compute_symbol)", "self",
         "littlewood_paley.symbol_s", 0.74),
        ("partition_sum", "incl", "littlewood_paley.partition_sum", 25.0 / 67.5),
    ],
}
# whether a layer's self time dominates the workload (over half the op)
DOMINANCE = {
    "picard": ("norms+variation", ("norms.", "variation.")),
    "bernstein": ("littlewood_paley", ("littlewood_paley.",)),
}
ROADMAP_CLI_S = {"verify-multilinear": 1.5, "picard": 0.4, "lipschitz": 0.8}
ROADMAP_CLI_OTHERS_BELOW_S = 0.4
DISAGREE = 0.10  # share points between harness and ROADMAP worth flagging


def print_end_to_end(values, spec, res, setup_s, first_s) -> None:
    notes = {"setup_s": f"median of {len(setup_s)} starts",
             "first_op_s": f"median first op of {len(first_s)} fresh processes",
             "op_p50_s": f"median of {len(res['warm_s'])} warm ops",
             "ops_per_min": "warm ops per minute of op CPU time",
             "peak_rss_mb": "peak resident memory of the workload process"}
    for m in spec:
        name = m["name"]
        print(f"{name:<14} {values[name]:>12.6g} {m['unit']:<6} {notes[name]}")
    print("set-up CPU seconds: " + " ".join(f"{s:.4f}" for s in setup_s))
    print("first op CPU seconds: " + " ".join(f"{s:.4f}" for s in first_s))
    print("warm op CPU seconds: " + " ".join(f"{s:.4f}" for s in res["warm_s"]))
    print("warm op wall seconds: "
          + " ".join(f"{s:.4f}" for s in res["warm_wall_s"]))


def _is_self_time(key) -> bool:
    return key.endswith("_s") and not key.startswith("cli.")


def print_layers(workload, layers, res) -> None:
    """Every per-layer number of the traced run, then the comparison with
    the ROADMAP's hand-measured breakdown."""
    op_s = sum(v for k, v in layers.items() if _is_self_time(k)) or 1.0
    print(f"per-layer, per traced op ({layers['bench.traced_ops']} traced ops; "
          f"self seconds and share of the traced op):")
    for key in sorted(layers):
        val = layers[key]
        if _is_self_time(key):
            print(f"  {key:<38} {val:>12.6g} s  {100 * val / op_s:6.2f}%")
        elif key.endswith("_s"):
            print(f"  {key:<38} {val:>12.6g} s  wall time, not self time")
        else:
            print(f"  {key:<38} {val:>12.6g}")
    if res.get("untraced_targets"):
        print("  not in the program, so not traced: "
              + ", ".join(res["untraced_targets"]))

    print("baseline against ROADMAP.md (hand-measured, other shapes):")
    if workload == "cli-suite":
        for kind, want in ROADMAP_CLI_S.items():
            got = layers.get(f"cli.{kind}_s", 0.0)
            print(f"  cli.{kind}_s  ROADMAP {want:.2f} s  harness {got:.3f} s")
        slow = sorted(k[4:-2] for k, v in layers.items()
                      if k.startswith("cli.") and k != "cli.startup_s"
                      and k[4:-2] not in ROADMAP_CLI_S
                      and v >= ROADMAP_CLI_OTHERS_BELOW_S)
        print(f"  every other kind under {ROADMAP_CLI_OTHERS_BELOW_S} s, as "
              "ROADMAP says: " + ("yes" if not slow else
                                 f"no, the harness disagrees: {', '.join(slow)}"))
        return
    inclusive = res["inclusive"]
    for what, kind, key, want in ROADMAP_ROWS[workload]:
        got = (layers if kind == "self" else inclusive).get(key, 0.0) / op_s
        flag = "  (the harness disagrees)" if abs(got - want) > DISAGREE else ""
        print(f"  {what:<38} {kind:<4} ROADMAP {100 * want:5.1f}%  "
              f"harness {100 * got:5.1f}%{flag}")
    label, prefixes = DOMINANCE[workload]
    got = sum(v for k, v in layers.items()
              if _is_self_time(k) and k.startswith(prefixes)) / op_s
    print(f"  {label} self time dominates {workload}: "
          f"{'yes' if got > 0.5 else 'no'} ({100 * got:.1f}% of the traced op)")
