//! Figure 18: sweeping #Active and #Exe for GraphPulse (p2p-Gnutella08)
//! and Widx (TPC-H-22).
//!
//! Paper shape target: GraphPulse gains up to ~2x from more controller
//! parallelism (event handling is routine-throughput-bound); Widx gains
//! at most ~10% (DRAM-bound, and hits already bypass the walkers).

use xcache_bench::{
    graphpulse_geometry, maybe_dump_table_json, p2p08_pagerank, render_table, scale, widx_geometry,
    widx_workload, Runner, Scenario,
};
use xcache_core::XCacheConfig;
use xcache_dsa::{graphpulse, widx};
use xcache_workloads::QueryClass;

const GRID: [(usize, usize); 4] = [(4, 1), (8, 2), (16, 4), (32, 8)];
const HEADERS: [&str; 3] = ["#Active/#Exe", "cycles", "speedup vs 4/1"];

/// Cycle counts into display rows, with cell 0 as the speedup base.
fn rows_vs_first(cycles: &[u64]) -> Vec<Vec<String>> {
    let base = cycles[0];
    GRID.iter()
        .zip(cycles)
        .map(|(&(active, exe), &c)| {
            vec![
                format!("{active}/{exe}"),
                c.to_string(),
                format!("{:.2}x", base as f64 / c as f64),
            ]
        })
        .collect()
}

fn main() {
    let scale = scale();
    println!("Figure 18: sweeping #Active / #Exe (scale 1/{scale})\n");
    let runner = Runner::from_env();

    // --- GraphPulse: p2p-Gnutella08-shaped PageRank ---
    let gw = p2p08_pagerank(scale, 7);
    let n = gw.graph.vertices();
    let cells: Vec<Scenario<'_, u64>> = GRID
        .into_iter()
        .map(|(active, exe)| {
            let gw = &gw;
            Scenario::new(format!("graphpulse {active}/{exe}"), move || {
                let g = XCacheConfig {
                    active,
                    exe,
                    ..graphpulse_geometry(n)
                };
                graphpulse::run_xcache(gw, Some(g)).cycles
            })
        })
        .collect();
    let rows = rows_vs_first(&runner.run(cells));
    println!("GraphPulse p2p-Gnutella08:");
    print!("{}", render_table(&HEADERS, &rows));
    maybe_dump_table_json("fig18_param_sweep_graphpulse", &HEADERS, &rows);

    // --- Widx: TPC-H-22 ---
    let ww = widx_workload(QueryClass::Q22, scale, 7);
    let cells: Vec<Scenario<'_, u64>> = GRID
        .into_iter()
        .map(|(active, exe)| {
            let ww = &ww;
            Scenario::new(format!("widx {active}/{exe}"), move || {
                let g = XCacheConfig {
                    active,
                    exe,
                    ..widx_geometry(scale)
                };
                widx::run_xcache(ww, Some(g)).cycles
            })
        })
        .collect();
    let rows = rows_vs_first(&runner.run(cells));
    println!("\nWidx TPC-H-22:");
    print!("{}", render_table(&HEADERS, &rows));
    maybe_dump_table_json("fig18_param_sweep_widx", &HEADERS, &rows);
    println!("\n(paper: GraphPulse up to ~2x; Widx <=10%)");
}
