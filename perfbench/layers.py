"""Per-layer metrics of the traced run, and what each should move.

Each entry is (metric, unit, moves): ``moves`` names the workload and
the end-to-end metric that a change to that layer should show up in.
Counts and times of library functions are per request of the traced
run, so they do not depend on how many requests fitted in the run.
"""

PER_REQ = "count/req"
S_PER_REQ = "s/req"

_ROOTS = "thresholds req_p50_s; certify-mix req_tail_s and fail_ratio"
_SECTIONS = "sections req_p50_s, req_tail_s and peak_rss_mb"
_ROWS = "thresholds req_p50_s"
_MIX = "certify-mix req_p50_s"

PER_LAYER = [
    ("polyform.roots.calls", PER_REQ, _ROOTS),
    ("polyform.roots.self_s", S_PER_REQ, _ROOTS),
    ("polyform.roots.failed", PER_REQ, _ROOTS),
    ("polyform.roots.warnings", PER_REQ, _ROOTS),
    ("polyform.min_modulus_disc.calls", PER_REQ, _ROOTS),
    ("polyform.min_modulus_disc.self_s", S_PER_REQ, _ROOTS),
    ("polydisc.in_polydisc_roots.calls", PER_REQ, _ROWS),
    ("polydisc.in_polydisc_roots.self_s", S_PER_REQ, _ROWS),
    ("polydisc.in_polydisc_schur_cohn.calls", PER_REQ, _MIX),
    ("polydisc.in_polydisc_schur_cohn.self_s", S_PER_REQ, _MIX),
    ("polydisc.membership_certificate.indeterminate_ratio", "ratio", _MIX),
    ("spread_toeplitz.symbol_inf.calls", PER_REQ, _MIX),
    ("spread_toeplitz.symbol_inf.self_s", S_PER_REQ, _MIX),
    ("spread_toeplitz.finite_section.self_s", S_PER_REQ, _SECTIONS),
    ("spread_toeplitz.finite_section.rule_calls", PER_REQ, _SECTIONS),
    ("spread_toeplitz.smallest_singular.self_s", S_PER_REQ, _SECTIONS),
    # 16 N^2 bytes of the dense complex section, computed, not measured
    ("spread_toeplitz.section.computed_bytes", "bytes/req", _SECTIONS),
    ("dilation.trajectory_coeffs.calls", PER_REQ, "sections req_p50_s"),
    ("dilation.trajectory_coeffs.self_s", S_PER_REQ, "sections req_p50_s"),
    ("weierstrass.cj_rule.calls", PER_REQ, "sections req_p50_s"),
    ("weierstrass.certify_S1.self_s", S_PER_REQ, "certify-mix req_tail_s"),
    ("weierstrass.certify_S1.degree_sum", PER_REQ, "certify-mix req_tail_s"),
    ("gross_pitaevskii.s_alpha.calls", PER_REQ, _ROWS),
    ("gross_pitaevskii.s_alpha.self_s", S_PER_REQ, _ROWS),
    ("gross_pitaevskii.solve_r0.self_s", S_PER_REQ, _ROWS),
    ("gross_pitaevskii.solve_r1.self_s", S_PER_REQ, _ROWS),
    ("gross_pitaevskii.solve_r1_tilde.self_s", S_PER_REQ, _ROWS),
    ("gross_pitaevskii.min_quadratic.calls", PER_REQ, _ROWS),
    ("gross_pitaevskii.min_quadratic.self_s", S_PER_REQ, _ROWS),
    ("gross_pitaevskii.min_quadratic.not_in_g2", PER_REQ, _ROWS),
    ("gross_pitaevskii.certify_T1.self_s", S_PER_REQ, _MIX),
    ("gross_pitaevskii.certify_Td.self_s", S_PER_REQ, _MIX),
    ("cli.import_s", "s", "setup_s on every workload"),
    ("cli.sweep.wall_s", "s", "thresholds cli_s"),
    # in-process time of the same rows, to set against cli.sweep.wall_s
    ("cli.sweep.row_sum_s", "s", "thresholds cli_s"),
    # traced req_p50_s over untraced req_p50_s, minus one
    ("trace.req_p50_overhead", "ratio", "none: cost of tracing itself"),
]

END_TO_END = [
    ("setup_s", "s"),
    ("req_p50_s", "s"),
    ("req_tail_s", "s"),
    ("req_per_s", "1/s"),
    ("cli_s", "s"),
    ("peak_rss_mb", "MB"),
]
