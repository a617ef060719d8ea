//! CI shard smoke: the sharded topology's determinism surface.
//!
//! Runs one sharded simulation per DSA family (Widx TPC-H Q19, Gamma
//! Gustavson SpGEMM, GraphPulse PageRank) at `XCACHE_SHARDS` shards and
//! prints/dumps every observable — end cycle, result checksum, and a
//! digest over the full counter map. CI runs the binary at several shard
//! counts across runner job counts, skip modes and execution modes and
//! diffs the JSON dumps: any divergence in any cell fails the build.
//!
//! Environment: `XCACHE_SHARDS` (default 4), `XCACHE_JOBS`,
//! `XCACHE_NO_SKIP`, `XCACHE_EXEC`, `XCACHE_SCALE`, `XCACHE_JSON`.

use xcache_bench::{
    graphpulse_geometry, maybe_dump_table_json, note_sim_cycles, p2p08_pagerank, render_table,
    scale, spgemm_geometry, widx_geometry, widx_workload, Runner, Scenario,
};
use xcache_core::{shards_from_env, splitmix64};
use xcache_dsa::{graphpulse, spgemm, widx, RunReport};
use xcache_workloads::QueryClass;

const HEADERS: [&str; 6] = [
    "Cell",
    "cycles",
    "checksum",
    "counters",
    "bank.remote",
    "dram.reads",
];

/// Order-independent fold over the full counter map: one diverging
/// counter anywhere changes the digest, so the CI diff covers every
/// statistic without a column per counter.
fn counter_digest(r: &RunReport) -> u64 {
    r.stats.counters.iter().fold(0u64, |acc, (k, v)| {
        let mut h = splitmix64(*v);
        for b in k.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        acc.wrapping_add(h)
    })
}

fn row(name: &str, r: &RunReport) -> Vec<String> {
    note_sim_cycles(r.cycles);
    vec![
        name.to_owned(),
        r.cycles.to_string(),
        r.checksum.to_string(),
        format!("{:016x}", counter_digest(r)),
        r.stats.get("bank.remote").to_string(),
        r.stats.get("dram.reads").to_string(),
    ]
}

fn main() {
    let scale = scale();
    let shards = shards_from_env(4);
    println!("Shard smoke: {shards}-shard topology determinism surface (scale 1/{scale})\n");

    let cells: Vec<Scenario<'_, Vec<String>>> = vec![
        Scenario::new("Widx Q19", move || {
            let w = widx_workload(QueryClass::Q19, scale, 7);
            let g = widx_geometry(scale);
            row("Widx Q19", &widx::run_xcache_sharded(&w, Some(g), shards))
        }),
        Scenario::new("Gustavson", move || {
            let w = spgemm::SpgemmWorkload::paper_like(spgemm::Algorithm::Gustavson, scale, 7);
            let g = spgemm_geometry(scale);
            row(
                "Gustavson",
                &spgemm::run_xcache_sharded(&w, Some(g), shards),
            )
        }),
        Scenario::new("GraphPulse", move || {
            let w = p2p08_pagerank(scale, 7);
            let g = graphpulse_geometry(w.graph.vertices());
            row(
                "GraphPulse",
                &graphpulse::run_xcache_sharded(&w, Some(g), shards),
            )
        }),
    ];

    let rows = Runner::default().run(cells);
    print!("{}", render_table(&HEADERS, &rows));
    maybe_dump_table_json("shard_smoke", &HEADERS, &rows);
}
