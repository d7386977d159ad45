//! End-to-end run of the `all` binary at smoke scale: every paper result
//! lands as a well-formed CSV.

use std::fs;
use std::path::Path;
use std::process::Command;

const CSVS: [&str; 7] = [
    "table1.csv",
    "table2.csv",
    "fig2_hit_rates.csv",
    "fig3_noise_rates.csv",
    "fig4_counter_space.csv",
    "fig5_dynamo_speedup.csv",
    "linked_crosscheck.csv",
];

#[test]
fn all_writes_every_result_with_rows_as_wide_as_their_headers() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper_pipeline");
    let _ = fs::remove_dir_all(&out_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--scale", "smoke", "--out"])
        .arg(&out_dir)
        .output()
        .expect("all runs");
    assert!(
        out.status.success(),
        "all failed\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    for file in CSVS {
        let text = fs::read_to_string(out_dir.join(file))
            .unwrap_or_else(|e| panic!("{file} not written: {e}"));
        let mut lines = text.lines();
        let width = lines.next().expect("header").split(',').count();
        let mut rows = 0;
        for (i, row) in lines.enumerate() {
            assert_eq!(
                row.split(',').count(),
                width,
                "{file} row {} has {} fields, header has {width}: {row}",
                i + 1,
                row.split(',').count()
            );
            rows += 1;
        }
        assert!(rows > 0, "{file} has no rows");
    }

    let fig5 = fs::read_to_string(out_dir.join("fig5_dynamo_speedup.csv")).expect("fig5");
    let averages: Vec<&str> = fig5
        .lines()
        .skip_while(|row| !row.starts_with("average,"))
        .collect();
    assert_eq!(
        averages.len(),
        6,
        "fig5 must end with one average row per (scheme, delay): {averages:?}"
    );
    assert!(averages.iter().all(|row| row.starts_with("average,")));
    assert!(out_dir.join("telemetry.json").exists());
}
