"""The mutation table: (name, file, exact old text, new text, test selection).

Each mutant replaces ``old`` in ``file`` with ``new``; its selection of
tests must fail on the mutated copy. ``old`` must occur exactly once in
the file, so a refactor that moves it fails the run instead of skipping
the mutant.
"""

ORACLE = "src/qlanroute/oracle.py"
T = "tests/test_oracle.py::"

MUTANTS = [
    ("rotation-signs-swapped", ORACLE,
     '        rotation = "ry-"\n'
     '    elif outcome == -1:\n'
     '        z_targets = row_k0 & ~row_v & ~(1 << i)\n'
     '        rotation = "ry+"\n',
     '        rotation = "ry+"\n'
     '    elif outcome == -1:\n'
     '        z_targets = row_k0 & ~row_v & ~(1 << i)\n'
     '        rotation = "ry-"\n',
     [T + "test_corrected_state_matches_graph_rule_for_both_outcomes"]),
    ("one-z-target-dropped", ORACLE,
     '[("z", order[b]) for b in bit_indices(z_targets)]',
     '[("z", order[b]) for b in bit_indices(z_targets)][1:]',
     [T + "test_corrected_state_matches_graph_rule_for_both_outcomes"]),
    ("fidelity-always-one", ORACLE,
     "    return float(abs(np.vdot(a, b)))",
     "    return 1.0",
     [T + "test_verify_flags_corrupted_claim", "tests/test_cli.py::test_verify_corrupt_negative_control"]),
    ("fidelity-square-rooted", ORACLE,
     "    return float(abs(np.vdot(a, b)))",
     "    return float(abs(np.vdot(a, b))) ** 0.5",
     [T + "test_verify_flags_corrupted_claim", "tests/test_cli.py::test_verify_corrupt_negative_control"]),
    ("rotation-scale-dropped", ORACLE,
     "            amps *= 1 / np.sqrt(2)",
     "            amps *= 1",
     [T + "test_verify_flags_corrupted_claim", T + "test_verify_single_link_case1_all_four_branches"]),
    ("leaf-norm-comparison-inverted", ORACLE,
     "        if not abs(norm - 1.0) <= NORM_TOL:",
     "        if abs(norm - 1.0) <= NORM_TOL:",
     [T + "test_verify_single_link_case1_all_four_branches"]),
    ("leaf-norm-check-not-nan-safe", ORACLE,
     "        if not abs(norm - 1.0) <= NORM_TOL:",
     "        if abs(norm - 1.0) > NORM_TOL:",
     [T + "test_quantum_state_rejects_a_non_finite_norm"]),
]
