//! `warped diagnose` end to end: the built binary plants a stuck output
//! bit on SM 0 lane 21, runs the benchmark under Warped-DMR at the quick
//! scale and localizes the fault from the detection log (paper §3.4).
//! Its stdout is pinned byte for byte.

use std::process::Command;

const VERDICT: &str = "verdict:         CORRECT — the defective SP is isolated; \
                       the SM stays usable via core re-routing [Zhang et al.]\n";

/// The report `diagnose <bench>` prints for a fault caught `detections`
/// times.
fn expected(bench: &str, detections: u64) -> String {
    format!(
        "\n== Fault localization on {bench} (paper §3.4) ==\n\
         planted fault:   sm0 lane 21 (stuck output bit 18)\n\
         detections:      {detections}\n\
         diagnosis:       sm0 lane 21 (4096 of 4096 events, 100.0% confidence)\n\
         {VERDICT}"
    )
}

#[test]
fn diagnose_output_is_pinned() {
    for (bench, detections) in [("SHA", 14688), ("MatrixMul", 17536), ("BFS", 8343)] {
        let out = Command::new(env!("CARGO_BIN_EXE_warped"))
            .args(["diagnose", bench])
            .output()
            .expect("the warped binary runs");
        assert!(out.status.success(), "{bench}: {out:?}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            expected(bench, detections),
            "{bench}"
        );
    }
}
