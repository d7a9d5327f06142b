//! The simulation step counts are part of the reproduction's contract:
//! every line the step-count benches print (`mpcn_bench::step_lines`) must
//! equal its line in `tests/golden/bench_steps.txt`, the one place those
//! lines are pinned.

/// Diffs [`mpcn_bench::step_lines`] against the golden file and names
/// every drifted line. After a change that means to move a step count,
/// regenerate the file in the same reviewed commit with
/// `cargo bench -- --quick 2>&1 >/dev/null | grep -E
/// '^(fig[0-9]|ablation|Section 5\.4|  ASM\()' > tests/golden/bench_steps.txt`.
#[test]
fn step_lines_match_golden_file() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/bench_steps.txt");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden: Vec<&str> = golden.lines().collect();
    let lines = mpcn_bench::step_lines();
    let drift: Vec<String> = (0..lines.len().max(golden.len()))
        .filter(|&i| lines.get(i).map(String::as_str) != golden.get(i).copied())
        .map(|i| {
            format!("- {}\n+ {}", golden.get(i).unwrap_or(&""), lines.get(i).map_or("", |l| l))
        })
        .collect();
    assert!(
        drift.is_empty(),
        "the simulation step counts drifted from {} (regenerate it only for an \
         intentional change):\n{}",
        path.display(),
        drift.join("\n")
    );
}
