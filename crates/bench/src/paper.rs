//! The paper's results, one function each: Tables 1–2, Figures 2–5, and
//! the linked-trace cross-check of Figure 5.
//!
//! Each function prints paper-style rows to stdout and writes its CSV
//! under the output directory. Tables 1–2 and Figure 4 take the runs of
//! one [`record_suite_parallel`]; Figures 2 and 3 share one
//! [`sweep_suite`] of those runs. The Dynamo results build their workloads
//! at a [`Scale`] and run on the calling thread, so an installed telemetry
//! recorder sees their engine events.
//!
//! [`record_suite_parallel`]: crate::record_suite_parallel
//! [`sweep_suite`]: crate::sweep_suite

use std::path::Path;

use hotpath_core::SchemeKind;
use hotpath_dynamo::{run_dynamo, run_dynamo_linked, run_native, DynamoConfig, Scheme};
use hotpath_workloads::{build, Scale, WorkloadName, ALL_WORKLOADS};

use crate::{ascii_chart, average_series, write_csv, RecordedRun, SweptRun};

/// The prediction delays of Figure 5.
const DYNAMO_DELAYS: [u64; 3] = [10, 50, 100];

/// The benchmarks Dynamo processes without bail-out.
fn dynamo_workloads() -> impl Iterator<Item = WorkloadName> {
    ALL_WORKLOADS
        .iter()
        .copied()
        .filter(|w| w.in_dynamo_figure())
}

/// **Table 1**: per benchmark, the total number of paths, the flow, and
/// the size and flow share of the 0.1% `HotPath` set.
pub fn table1(runs: &[RecordedRun], out_dir: &Path) {
    println!("\nTable 1. Benchmark set (hot threshold 0.1% of flow)");
    println!(
        "{:<10} {:>9} {:>12} {:>14} {:>9}",
        "Benchmark", "#Paths", "Flow", "Hot #Paths", "%Flow"
    );
    let mut rows = Vec::new();
    for run in runs {
        println!(
            "{:<10} {:>9} {:>12} {:>14} {:>8.1}%",
            run.name.to_string(),
            run.table.len(),
            run.flow(),
            run.hot.len(),
            run.hot.flow_percentage()
        );
        rows.push(format!(
            "{},{},{},{},{:.2}",
            run.name,
            run.table.len(),
            run.flow(),
            run.hot.len(),
            run.hot.flow_percentage()
        ));
    }
    write_csv(
        out_dir,
        "table1.csv",
        "benchmark,paths,flow,hot_paths,hot_flow_pct",
        &rows,
    );
}

/// **Table 2**: dynamic paths vs. unique path heads per benchmark — one
/// counter per path (path-profile based prediction) against one counter
/// per head (NET).
pub fn table2(runs: &[RecordedRun], out_dir: &Path) {
    println!("\nTable 2. Number of paths and unique path heads");
    println!(
        "{:<10} {:>9} {:>20}",
        "Benchmark", "#Paths", "#Unique Path Heads"
    );
    let mut rows = Vec::new();
    for run in runs {
        println!(
            "{:<10} {:>9} {:>20}",
            run.name.to_string(),
            run.table.len(),
            run.table.unique_heads()
        );
        rows.push(format!(
            "{},{},{}",
            run.name,
            run.table.len(),
            run.table.unique_heads()
        ));
    }
    write_csv(
        out_dir,
        "table2.csv",
        "benchmark,paths,unique_path_heads",
        &rows,
    );
}

/// **Figure 2**: hit rate vs. profiled flow for path-profile based (a–b)
/// and NET prediction (c–d), delays 10 to 1,000,000.
///
/// The CSV holds every benchmark's full series; stdout prints the zoomed
/// right-hand panels (profiled flow ≤ 10%) and the Average series, where
/// the paper's "virtually no difference" claim lives.
pub fn fig2(swept: &[SweptRun], out_dir: &Path) {
    let mut rows = Vec::new();
    for sr in swept {
        for pt in &sr.points {
            rows.push(format!(
                "{},{},{},{:.4},{:.4},{:.4},{:.4},{}",
                sr.name,
                sr.scheme,
                pt.delay,
                pt.outcome.profiled_flow_pct(),
                pt.outcome.hit_rate(),
                pt.outcome.noise_rate(),
                pt.outcome.moc_pct(),
                pt.outcome.counter_space,
            ));
        }
    }
    write_csv(
        out_dir,
        "fig2_hit_rates.csv",
        "benchmark,scheme,delay,profiled_flow_pct,hit_rate_pct,noise_rate_pct,moc_pct,counter_space",
        &rows,
    );

    for scheme in [SchemeKind::PathProfile, SchemeKind::Net] {
        println!("\nFigure 2 ({scheme}): hit rate in the practical range (profiled flow <= 10%)");
        println!(
            "{:<10} {:>8} {:>14} {:>10}",
            "Benchmark", "delay", "profiled%", "hit%"
        );
        for sr in swept.iter().filter(|s| s.scheme == scheme) {
            for pt in &sr.points {
                if pt.outcome.profiled_flow_pct() <= 10.0 {
                    println!(
                        "{:<10} {:>8} {:>13.2}% {:>9.2}%",
                        sr.name.to_string(),
                        pt.delay,
                        pt.outcome.profiled_flow_pct(),
                        pt.outcome.hit_rate()
                    );
                }
            }
        }
        println!("-- Average series ({scheme}) --");
        println!("{:>8} {:>14} {:>10}", "delay", "profiled%", "hit%");
        for (delay, prof, hit, _noise) in average_series(swept, scheme) {
            println!("{delay:>8} {prof:>13.2}% {hit:>9.2}%");
        }
    }
    let series = |scheme| -> Vec<(f64, f64)> {
        average_series(swept, scheme)
            .into_iter()
            .map(|(_, p, h, _)| (p, h))
            .collect()
    };
    println!(
        "\n{}",
        ascii_chart(
            "Figure 2 average series: N = NET, P = PathProfile",
            "profiled flow",
            "hit rate",
            &[
                ('P', &series(SchemeKind::PathProfile)),
                ('N', &series(SchemeKind::Net))
            ],
            72,
            20,
        )
    );
}

/// **Figure 3**: noise rate vs. profiled flow for path-profile based
/// (a–b) and NET prediction (c–d), plus the crossover: in the practical
/// range NET's noise is comparable or better, at long delays path-profile
/// prediction is more accurate.
pub fn fig3(swept: &[SweptRun], out_dir: &Path) {
    let mut rows = Vec::new();
    for sr in swept {
        for pt in &sr.points {
            rows.push(format!(
                "{},{},{},{:.4},{:.4}",
                sr.name,
                sr.scheme,
                pt.delay,
                pt.outcome.profiled_flow_pct(),
                pt.outcome.noise_rate(),
            ));
        }
    }
    write_csv(
        out_dir,
        "fig3_noise_rates.csv",
        "benchmark,scheme,delay,profiled_flow_pct,noise_rate_pct",
        &rows,
    );

    let avg_pp = average_series(swept, SchemeKind::PathProfile);
    let avg_net = average_series(swept, SchemeKind::Net);
    for (scheme, avg) in [
        (SchemeKind::PathProfile, &avg_pp),
        (SchemeKind::Net, &avg_net),
    ] {
        println!("\nFigure 3 ({scheme}): noise rate vs profiled flow (Average series)");
        println!("{:>8} {:>14} {:>10}", "delay", "profiled%", "noise%");
        for (delay, prof, _hit, noise) in avg {
            println!("{delay:>8} {prof:>13.2}% {noise:>9.2}%");
        }
    }
    let clamped = |avg: &[(u64, f64, f64, f64)]| -> Vec<(f64, f64)> {
        avg.iter().map(|&(_, p, _, n)| (p, n.min(100.0))).collect()
    };
    println!(
        "\n{}",
        ascii_chart(
            "Figure 3 average series: N = NET, P = PathProfile",
            "profiled flow",
            "noise rate (clamped at 100%)",
            &[('P', &clamped(&avg_pp)), ('N', &clamped(&avg_net))],
            72,
            20,
        )
    );
    println!("\nNoise comparison (NET - PathProfile), by delay:");
    for (n, p) in avg_net.iter().zip(&avg_pp) {
        println!(
            "  delay {:>8}: profiled {:>6.2}% vs {:>6.2}%, noise delta {:+.2}%",
            n.0,
            n.1,
            p.1,
            n.3 - p.3
        );
    }
}

/// **Figure 4**: NET counter space normalized to path-profile counter
/// space — unique path heads over dynamic paths, per benchmark and on
/// average.
pub fn fig4(runs: &[RecordedRun], out_dir: &Path) {
    println!("\nFigure 4. NET counter space normalized to path-profile counter space");
    println!(
        "{:<10} {:>9} {:>9} {:>10}",
        "Benchmark", "heads", "paths", "ratio"
    );
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for run in runs {
        let heads = run.table.unique_heads();
        let paths = run.table.len().max(1);
        let ratio = heads as f64 / paths as f64;
        ratios.push(ratio);
        println!(
            "{:<10} {:>9} {:>9} {:>9.3}",
            run.name.to_string(),
            heads,
            paths,
            ratio
        );
        rows.push(format!("{},{heads},{paths},{ratio:.4}", run.name));
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!("{:<10} {:>9} {:>9} {:>9.3}", "Average", "", "", avg);
    rows.push(format!("average,,,{avg:.4}"));
    write_csv(
        out_dir,
        "fig4_counter_space.csv",
        "benchmark,unique_heads,paths,net_over_pathprofile",
        &rows,
    );
    println!(
        "\nNET uses on average {:.0}% of the counter space of path-profile based prediction.",
        avg * 100.0
    );
}

/// **Figure 5**: Dynamo speedup over native execution with NET and
/// path-profile based prediction, each at delays 10, 50 and 100, on the
/// five benchmarks Dynamo processes without bail-out, plus one `average`
/// row per configuration.
pub fn fig5(scale: Scale, out_dir: &Path) {
    let configs: Vec<(Scheme, u64)> = [Scheme::Net, Scheme::PathProfile]
        .into_iter()
        .flat_map(|scheme| DYNAMO_DELAYS.map(|delay| (scheme, delay)))
        .collect();
    println!("\nFigure 5. Dynamo speedup over native execution (percent)");
    println!(
        "{:<10} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "Benchmark", "NET10", "NET50", "NET100", "PP10", "PP50", "PP100"
    );
    let mut rows = Vec::new();
    let names: Vec<WorkloadName> = dynamo_workloads().collect();
    let mut sums = vec![0.0f64; configs.len()];
    for &name in &names {
        let w = build(name, scale);
        let native = run_native(&w.program).expect("native run");
        let mut cells = Vec::new();
        for &(scheme, delay) in &configs {
            let out =
                run_dynamo(&w.program, &DynamoConfig::new(scheme, delay)).expect("dynamo run");
            let speedup = out.speedup_percent(native);
            if out.bailed_out {
                eprintln!("[fig5] {name} {scheme} tau={delay} bailed out");
            }
            rows.push(format!(
                "{name},{scheme},{delay},{speedup:.3},{}",
                out.bailed_out
            ));
            cells.push(speedup);
        }
        for (sum, cell) in sums.iter_mut().zip(&cells) {
            *sum += cell;
        }
        println!(
            "{:<10} {:>6.1}% {:>6.1}% {:>6.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            name.to_string(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4],
            cells[5]
        );
    }
    let avg: Vec<f64> = sums.iter().map(|s| s / names.len() as f64).collect();
    println!(
        "{:<10} {:>6.1}% {:>6.1}% {:>6.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
        "Average", avg[0], avg[1], avg[2], avg[3], avg[4], avg[5]
    );
    for (&(scheme, delay), a) in configs.iter().zip(&avg) {
        rows.push(format!("average,{scheme},{delay},{a:.3},false"));
    }
    write_csv(
        out_dir,
        "fig5_dynamo_speedup.csv",
        "benchmark,scheme,delay,speedup_pct,bailed_out",
        &rows,
    );
}

/// Figure 5's NET τ=50 column, simulated ([`run_dynamo`]'s cost model over
/// recorded paths) against executed on the VM's linked-trace backend
/// ([`run_dynamo_linked`]), on all nine benchmarks: the figure's five and
/// the four it leaves out because Dynamo bailed out on them in the paper.
///
/// The rows measure the gap between the engines; closing it is ROADMAP's
/// "One Dynamo engine" item.
pub fn linked_crosscheck(scale: Scale, out_dir: &Path) {
    println!("\nLinked-trace cross-check (NET tau=50): simulated vs. executed engine.");
    println!(
        "{:<10} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9}",
        "Benchmark", "sim", "linked", "sim frags", "lnk frags", "sim cach", "lnk cach"
    );
    let config = DynamoConfig::new(Scheme::Net, 50);
    let bail = |bailed: bool| if bailed { "*" } else { "" };
    let mut rows = Vec::new();
    for name in ALL_WORKLOADS {
        let w = build(name, scale);
        let native = run_native(&w.program).expect("native run");
        let sim = run_dynamo(&w.program, &config).expect("dynamo run");
        let real = run_dynamo_linked(&w.program, &config)
            .expect("dynamo-linked run")
            .outcome;
        println!(
            "{:<10} {:>+8.1}% {:>+8.1}% {:>10} {:>10} {:>8.1}% {:>8.1}%",
            name.to_string(),
            sim.speedup_percent(native),
            real.speedup_percent(native),
            format!("{}{}", sim.fragments_installed, bail(sim.bailed_out)),
            format!("{}{}", real.fragments_installed, bail(real.bailed_out)),
            sim.cached_block_fraction * 100.0,
            real.cached_block_fraction * 100.0,
        );
        rows.push(format!(
            "{name},{:.3},{:.3},{:.4},{:.4},{},{},{},{}",
            sim.speedup_percent(native),
            real.speedup_percent(native),
            sim.cached_block_fraction,
            real.cached_block_fraction,
            sim.fragments_installed,
            real.fragments_installed,
            sim.bailed_out,
            real.bailed_out
        ));
    }
    println!("(* = bailed out)");
    write_csv(
        out_dir,
        "linked_crosscheck.csv",
        "benchmark,sim_speedup_pct,exec_speedup_pct,sim_cached_fraction,cached_fraction,\
         sim_fragments,fragments,sim_bailed_out,bailed_out",
        &rows,
    );
}
