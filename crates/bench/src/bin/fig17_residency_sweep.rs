//! Figure 17: X-Cache runtime vs the Widx baseline across on-chip data
//! residency (TPC-H-22).
//!
//! Paper shape target: as the resident fraction (and hence hit rate)
//! rises, the meta-tag advantage grows — hits skip hashing and walking
//! entirely, while the baseline walks regardless.

use xcache_bench::crossval::{oracle_geometry, widx_oracle_ops};
use xcache_bench::{
    maybe_dump_table_json, pct, render_table, residency_geometry, residency_workload, scale,
    Runner, Scenario,
};
use xcache_dsa::widx;
use xcache_oracle::CacheModel;

const HEADERS: [&str; 5] = [
    "% on-chip",
    "hit rate",
    "X-Cache cyc",
    "Widx cyc",
    "speedup",
];

fn main() {
    let scale = scale();
    println!("Figure 17: runtime vs % data on-chip, Widx TPC-H-22 (scale 1/{scale})\n");
    let w = residency_workload(scale, 7);
    let keys = w.index.len();
    // The access plan depends only on the index layout, not the cache
    // geometry — derive it once and replay it per sweep point for the
    // pruning estimate (predicted DRAM-walking misses: the cells where
    // simulation has the most to say).
    let oracle_ops = widx_oracle_ops(&w);
    let cells: Vec<Scenario<'_, Vec<String>>> = [10u32, 25, 50, 75, 100]
        .into_iter()
        .map(|resident_pct| {
            let w = &w;
            let predicted = CacheModel::replay(
                oracle_geometry(&residency_geometry(keys, resident_pct)),
                &oracle_ops,
            );
            Scenario::new(format!("{resident_pct}% resident"), move || {
                let g = residency_geometry(keys, resident_pct);
                let x = widx::run_xcache(w, Some(g.clone()));
                let b = widx::run_baseline(w, Some(g));
                let hit_rate = x.stats.get("xcache.hit") as f64
                    / (x.stats.get("xcache.hit") + x.stats.get("xcache.miss")).max(1) as f64;
                vec![
                    format!("{resident_pct}%"),
                    pct(hit_rate),
                    x.cycles.to_string(),
                    b.cycles.to_string(),
                    format!("{:.2}x", x.speedup_over(&b)),
                ]
            })
            .with_estimate(predicted.misses as f64)
        })
        .collect();
    let total = cells.len();
    let rows: Vec<Vec<String>> = Runner::from_env()
        .run_pruned(cells)
        .into_iter()
        .flatten()
        .collect();
    print!("{}", render_table(&HEADERS, &rows));
    maybe_dump_table_json("fig17_residency_sweep", &HEADERS, &rows);
    if rows.len() < total {
        println!(
            "\n({} of {total} cells pruned by XCACHE_ESTIMATE_FRAC; \
             ranked by oracle-predicted misses)",
            total - rows.len()
        );
    }
    println!("\n(paper: the meta-tag advantage grows with residency/hit rate)");
}
